package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	tgmetrics "tycoongrid/internal/metrics"
)

// tailQ is the tail percentile every workload reports as latency_tail_ms.
// p99 leaves too few samples beyond it on the interval-paced workload to
// repeat between runs; p90 leaves well over ten per window on bank-transfer
// and per run on market-tick. grid-strategies is a batch of a few dozen
// worlds, so fewer lie beyond it; its output says how many.
const tailQ = 0.90

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return xs[lo]
	}
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above the q-quantile of xs.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// statWindow is the length, in seconds, of the windows a request-paced
// run is measured in. Throughput and latency percentiles are taken per
// window and their median across windows is reported, so a burst of load
// from outside the benchmark spoils a window, not the run.
const statWindow = 1.0

// opSample is one attempted operation: the window it ran in, its latency
// in ms, and whether it succeeded.
type opSample struct {
	window int
	ms     float64
	ok     bool
}

type windowed struct {
	throughput, p50, tail float64
	windows               int
	minBeyond, maxBeyond  int // samples beyond the tail percentile, per window
}

// windowStats returns the medians over windows of each window's
// throughput (successes per second), p50 and tail latency. A last window
// cut short to under half its length when the inputs ran out is left out.
func windowStats(samples []opSample, durations []float64) windowed {
	n := len(durations)
	if n > 1 && durations[n-1] < statWindow/2 {
		n--
	}
	lat := make([][]float64, n)
	ok := make([]float64, n)
	for _, s := range samples {
		if s.window >= n {
			continue
		}
		if s.ok {
			ok[s.window]++
			lat[s.window] = append(lat[s.window], s.ms)
		} else {
			// A failed or refused operation misses any latency limit.
			lat[s.window] = append(lat[s.window], math.Inf(1))
		}
	}
	var thr, p50, tail []float64
	res := windowed{windows: n, minBeyond: math.MaxInt}
	for i := range lat {
		if len(lat[i]) == 0 {
			continue
		}
		thr = append(thr, ok[i]/durations[i])
		p50 = append(p50, quantile(lat[i], 0.5))
		tail = append(tail, quantile(lat[i], tailQ))
		b := beyond(lat[i], tailQ)
		res.minBeyond, res.maxBeyond = min(res.minBeyond, b), max(res.maxBeyond, b)
	}
	res.throughput, res.p50, res.tail = median(thr), median(p50), median(tail)
	return res
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the bytes still allocated. The
// caller keeps its workload state reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// rtStats is a snapshot of the runtime counters the per-layer run reports
// as deltas: allocations, GC cycles and GC CPU time.
type rtStats struct {
	mallocs  uint64
	numGC    uint32
	gcCPU    float64
	totalCPU float64
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRT() rtStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	return rtStats{
		mallocs:  ms.Mallocs,
		numGC:    ms.NumGC,
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
	}
}

// addRuntimeLayers records the runtime per-layer metrics of one workload's
// traced section: allocations per operation, GC cycles, and the share of
// the process's CPU time the collector used.
func addRuntimeLayers(o *outcome, workload string, before, after rtStats, ops int64) {
	if ops <= 0 {
		ops = 1
	}
	prefix := "runtime." + workload + "."
	o.layer(prefix+"allocs_per_op", float64(after.mallocs-before.mallocs)/float64(ops))
	o.layer(prefix+"gc_cycles", float64(after.numGC-before.numGC))
	frac := 0.0
	if d := after.totalCPU - before.totalCPU; d > 0 {
		frac = (after.gcCPU - before.gcCPU) / d
	}
	o.layer(prefix+"gc_cpu_fraction", frac)
}

// peakLive tracks the largest post-GC live heap the runtime reports while a
// workload runs. A sentinel whose finalizer re-arms itself fires once per
// collection; /gc/heap/live:bytes is the heap the last mark found reachable,
// so the maximum over a run is the live heap at its fullest, read while the
// program still held its state.
type peakLive struct {
	peak    atomic.Uint64
	stopped atomic.Bool
	done    chan struct{}
}

func startPeakLive() *peakLive {
	p := &peakLive{done: make(chan struct{})}
	p.arm()
	return p
}

type gcSentinel struct{ _ [16]byte }

func (p *peakLive) arm() {
	s := &gcSentinel{}
	runtime.SetFinalizer(s, func(*gcSentinel) {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > p.peak.Load() {
			p.peak.Store(v)
		}
		if p.stopped.Load() {
			close(p.done)
			return
		}
		p.arm()
	})
}

// stop disarms the tracker and waits for its last finalizer.
func (p *peakLive) stop() {
	p.stopped.Store(true)
	for {
		runtime.GC()
		select {
		case <-p.done:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// reset clears the peak so the next read covers only what follows.
func (p *peakLive) reset() { p.peak.Store(0) }

// mb returns the peak so far in MiB.
func (p *peakLive) mb() float64 { return float64(p.peak.Load()) / (1 << 20) }

// counterTotal sums every child of a registry counter family.
func counterTotal(s tgmetrics.Snapshot, family string) uint64 {
	var sum uint64
	for _, c := range s.Counters {
		if c.Name == family {
			sum += c.Value
		}
	}
	return sum
}

// histogramCount sums the observation counts of a registry histogram family.
func histogramCount(s tgmetrics.Snapshot, family string) uint64 {
	var sum uint64
	for _, h := range s.Histograms {
		if h.Name == family {
			sum += h.Count
		}
	}
	return sum
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// span is one timed call into a layer. Spans of one request or interval
// share a trace id; parent is the id of the enclosing span (0 for a root).
type span struct {
	trace  uint64
	id     uint64
	parent uint64
	name   string
	start  int64 // ns since the recorder's origin
	end    int64
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	origin time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.origin))
}

// newID reserves a span id, so a parent's id can be handed to children
// before the parent ends.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// add records a finished span and returns its id.
func (r *recorder) add(trace, id, parent uint64, name string, start, end int64) uint64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{trace: trace, id: id, parent: parent, name: name, start: start, end: end})
	r.mu.Unlock()
	return id
}

// batch appends spans collected by one goroutine under a single lock.
func (r *recorder) batch(s []span) {
	if r == nil || len(s) == 0 {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s...)
	r.mu.Unlock()
}

// durations returns the durations in µs of every span named name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// selfTimes returns, per span name, each span's self time in µs: its
// duration minus the part of it that the union of its children covers.
func (r *recorder) selfTimes() map[string][]float64 {
	children := make(map[uint64][]span)
	for _, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range r.spans {
		covered := unionNS(children[s.id], s.start, s.end)
		out[s.name] = append(out[s.name], float64(s.end-s.start-covered)/1e3)
	}
	return out
}

// unionNS is the length of [lo, hi) covered by at least one of spans.
func unionNS(spans []span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}

// write saves every span as one tab-separated line.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace\tid\tparent\tname\tstart_ns\tend_ns")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.trace, s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// referenceKernelSeconds is the wall time of one speedGauge sample on the
// reference machine: the 2-vCPU Intel Xeon VM this benchmark was tuned on,
// when its host was quiet.
const referenceKernelSeconds = 0.020

// speedGauge measures how fast the machine runs at the moment. The host
// this benchmark runs on is shared: other tenants' load slows every
// instruction by up to half, and the slowdown moves within seconds. Between
// stretches of load, with the workload idle, the gauge times a fixed kernel
// of the benchmark's own (hashing, sorting, table updates, no allocation) on
// both cores. The median of a run's samples over referenceKernelSeconds is
// the run's slowdown; the end-to-end timings are reported divided by it,
// that is, at the reference machine's speed, and the raw values are printed
// beside them. The kernel owes nothing to the program, so a change to the
// program moves the scaled timings as much as the raw ones.
type speedGauge struct {
	secs  []float64
	state [2]kernelState
}

type kernelState struct {
	xs    [512]uint64
	table [1 << 17]uint64
	buf   [1024]byte
	sink  uint64
}

// kernelIters is the kernel's fixed work per core per sample.
const kernelIters = 480

func (k *kernelState) run(seed uint64) {
	x := seed | 1
	for it := 0; it < kernelIters; it++ {
		for i := range k.xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k.xs[i] = x
			k.table[x%uint64(len(k.table))] += x
			k.buf[i%len(k.buf)] ^= byte(x)
		}
		slices.Sort(k.xs[:])
		h := sha256.Sum256(k.buf[:])
		k.sink += k.xs[len(k.xs)/2] + uint64(h[0])
	}
}

// sample times one run of the kernel on each core.
func (g *speedGauge) sample() {
	start := time.Now()
	var wg sync.WaitGroup
	for i := range g.state {
		wg.Add(1)
		go func(k *kernelState, seed uint64) {
			defer wg.Done()
			k.run(seed)
		}(&g.state[i], uint64(len(g.secs)*2+i))
	}
	wg.Wait()
	g.secs = append(g.secs, since(start))
}

// slowdown is how many times slower than the reference machine the run's
// machine was.
func (g *speedGauge) slowdown() float64 {
	return median(append([]float64(nil), g.secs...)) / referenceKernelSeconds
}

// scaleTimings reports o's timing metrics at the reference machine's speed
// and notes the raw values.
func scaleTimings(o *outcome, g *speedGauge) {
	s := g.slowdown()
	o.notef("machine slowdown %.3f (median of %d reference-kernel samples of %.1f ms at reference speed); raw:"+
		" throughput_per_s %.2f, latency_p50_ms %.4f, latency_tail_ms %.4f, cpu_us_per_op %.3f, setup_s %.5f",
		s, len(g.secs), referenceKernelSeconds*1e3, o.e2e["throughput_per_s"], o.e2e["latency_p50_ms"],
		o.e2e["latency_tail_ms"], o.e2e["cpu_us_per_op"], o.e2e["setup_s"])
	o.e2e["throughput_per_s"] *= s
	for _, k := range []string{"latency_p50_ms", "latency_tail_ms", "cpu_us_per_op", "setup_s"} {
		o.e2e[k] /= s
	}
}
