// Command perfbench is the repository benchmark. It drives three workloads
// through the program's public APIs, checks their outputs, and prints one
// JSON result line. From the root of the repository:
//
//	python3 perfbench/run.py --workload bank-transfer --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of the named
// workload. With --trace 1 it carries the per-layer metrics: the named
// workload runs once untraced and once traced, which gives the tracing
// overhead, and the other two workloads run traced for a quarter of the time
// so that every layer metric is measured in every traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tycoongrid/internal/tracing"
)

// outDir holds what a run leaves behind (WAL directories, span files). It
// is relative to the working directory, the root of the checkout.
var outDir = ".bench_build"

// metricUnits names the unit of every metric the benchmark can print.
var metricUnits = map[string]string{
	"throughput_per_s": "1/s",
	"latency_p50_ms":   "ms",
	"latency_tail_ms":  "ms",
	"cpu_us_per_op":    "us",
	"live_heap_mb":     "MB",
	"setup_s":          "s",
}

// layerInfo is a per-layer metric's unit and the end-to-end metric and
// workload it should move.
type layerInfo struct {
	unit  string
	moves string
}

var layerInfos = map[string]layerInfo{
	"httpapi.handler_us":          {"us", "bank-transfer latency_p50_ms"},
	"httpapi.wire_us":             {"us", "bank-transfer latency_p50_ms"},
	"bank.transfer_us":            {"us", "bank-transfer latency_p50_ms, cpu_us_per_op"},
	"bank.scaling_2v1":            {"ratio", "bank-transfer throughput_per_s"},
	"pki.verify_us":               {"us", "bank-transfer throughput_per_s"},
	"pki.sign_us":                 {"us", "bank-transfer throughput_per_s"},
	"durable.wal_bytes_per_op":    {"B/op", "bank-transfer cpu_us_per_op, latency_tail_ms"},
	"durable.records_per_op":      {"1/op", "bank-transfer cpu_us_per_op, latency_tail_ms"},
	"durable.fsyncs":              {"count", "bank-transfer cpu_us_per_op, latency_tail_ms"},
	"bank.heap_bytes_per_op":      {"B/op", "bank-transfer live_heap_mb"},
	"bank-transfer.residual_us":   {"us", "bank-transfer latency_p50_ms"},
	"marketplane.discovery_us":    {"us", "market-tick throughput_per_s"},
	"marketplane.enqueue_us":      {"us", "market-tick throughput_per_s"},
	"marketplane.clear_ms":        {"ms", "market-tick latency_p50_ms, latency_tail_ms"},
	"marketplane.shard_skew":      {"ratio", "market-tick latency_p50_ms, latency_tail_ms"},
	"auction.clears_per_interval": {"count", "market-tick latency_p50_ms"},
	"bank.create_account_us":      {"us", "market-tick throughput_per_s, latency_p50_ms"},
	"bank.settle_us":              {"us", "market-tick throughput_per_s, latency_p50_ms"},
	"bank.moves_per_job":          {"1/op", "market-tick throughput_per_s, latency_p50_ms"},
	"market-tick.residual_ms":     {"ms", "market-tick latency_p50_ms"},
	"grid.ticks":                  {"count", "grid-strategies throughput_per_s (work done, not speed)"},
	"auction.clears":              {"count", "grid-strategies throughput_per_s (work done, not speed)"},
	"bank.internal_moves":         {"count", "grid-strategies throughput_per_s (work done, not speed)"},
	"bank.transfers":              {"count", "grid-strategies throughput_per_s (work done, not speed)"},
	"token.redemptions":           {"count", "grid-strategies throughput_per_s (work done, not speed)"},
	"pricefeed.samples":           {"count", "grid-strategies throughput_per_s (work done, not speed)"},
	"arc.meta_picks":              {"count", "grid-strategies throughput_per_s (work done, not speed)"},
}

func init() {
	for _, pkg := range cpuBuckets {
		layerInfos["cpu_share."+pkg] = layerInfo{"share", "grid-strategies throughput_per_s"}
	}
	for _, w := range workloadNames {
		moves := w + " cpu_us_per_op, latency_tail_ms"
		layerInfos["runtime."+w+".allocs_per_op"] = layerInfo{"1/op", moves}
		layerInfos["runtime."+w+".gc_cycles"] = layerInfo{"count", moves}
		layerInfos["runtime."+w+".gc_cpu_fraction"] = layerInfo{"share", moves}
	}
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int64
	problems          []string           // failed output checks
	e2e               map[string]float64 // end-to-end metrics
	layers            map[string]float64 // per-layer metrics (traced runs)
	notes             []string           // context printed with the result
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// layer records a per-layer metric. A layer with no spans or samples has
// no value; that fails the run rather than reporting a zero.
func (o *outcome) layer(name string, v float64) {
	if math.IsNaN(v) {
		o.check(false, "layer metric %s has no samples", name)
		v = 0
	}
	o.layers[name] = v
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// merge folds another run's counts, checks and layer metrics into o.
func (o *outcome) merge(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.problems = append(o.problems, p.problems...)
	for k, v := range p.layers {
		o.layers[k] = v
	}
}

// runConfig is one workload invocation.
type runConfig struct {
	seed    int64
	seconds float64
	rec     *recorder // nil = untraced
	small   bool      // smoke-sized inputs, for the benchmark's own tests
}

type workloadFunc func(runConfig) (*outcome, error)

var workloadNames = []string{"bank-transfer", "market-tick", "grid-strategies"}

var workloads = map[string]workloadFunc{
	"bank-transfer":   runBankTransfer,
	"market-tick":     runMarketTick,
	"grid-strategies": runGridStrategies,
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "bank-transfer | market-tick | grid-strategies")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n",
			*workload, *seconds, *trace)
		os.Exit(2)
	}
	// The program's own span tracer records nothing in either mode; the
	// traced run records its spans in the benchmark's recorder instead.
	tracing.Default().SetSampleRatio(0)

	fmt.Printf("env: nproc=%d gomaxprocs=%d go=%s cpu=%q seed=%d seconds=%g trace=%d program_trace_ratio=%g wal_sync=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), *seed, *seconds, *trace,
		tracing.Default().SampleRatio(), bankSync)

	var res jsonResult
	var err error
	if *trace == 0 {
		res, err = untraced(*workload, runConfig{seed: *seed, seconds: *seconds})
	} else {
		res, err = traced(*workload, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func untraced(name string, cfg runConfig) (jsonResult, error) {
	o, err := workloads[name](cfg)
	if err != nil {
		return jsonResult{}, fmt.Errorf("%s: %w", name, err)
	}
	for _, k := range sortedKeys(o.e2e) {
		if v := o.e2e[k]; math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			o.check(false, "metric %s = %v", k, v)
			o.e2e[k] = 0
		}
	}
	printNotes(name, o)
	res := result(o)
	for _, k := range sortedKeys(o.e2e) {
		res.Metrics[k] = jsonMetric{Value: o.e2e[k], Unit: metricUnits[k]}
	}
	return res, nil
}

// traced runs the named workload untraced and traced for half the time
// each, then the other workloads traced for a quarter each, and reports
// every per-layer metric together with the tracing overhead.
func traced(name string, seed int64, seconds float64) (jsonResult, error) {
	ref, err := workloads[name](runConfig{seed: seed, seconds: seconds / 2})
	if err != nil {
		return jsonResult{}, fmt.Errorf("%s untraced: %w", name, err)
	}
	printNotes(name+" (untraced reference)", ref)
	total := newOutcome()
	total.merge(ref)
	var overhead []string
	for _, w := range append([]string{name}, others(name)...) {
		secs := seconds / 4
		if w == name {
			secs = seconds / 2
		}
		rec := newRecorder()
		o, err := workloads[w](runConfig{seed: seed, seconds: secs, rec: rec})
		if err != nil {
			return jsonResult{}, fmt.Errorf("%s traced: %w", w, err)
		}
		if err := rec.write(filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.tsv", w, seed))); err != nil {
			return jsonResult{}, fmt.Errorf("writing spans: %w", err)
		}
		printNotes(w+" (traced)", o)
		total.merge(o)
		if w == name {
			for _, k := range sortedKeys(ref.e2e) {
				overhead = append(overhead, fmt.Sprintf("  %-18s untraced %12.4f  traced %12.4f  traced-untraced %+10.4f %s",
					k, ref.e2e[k], o.e2e[k], o.e2e[k]-ref.e2e[k], metricUnits[k]))
			}
		}
	}
	fmt.Printf("tracing overhead on %s (traced minus untraced, %gs each):\n", name, seconds/2)
	for _, l := range overhead {
		fmt.Println(l)
	}
	fmt.Printf("per-layer metrics:\n  %-40s %14s %-6s %s\n", "layer", "value", "unit", "should move")
	res := result(total)
	for _, k := range sortedKeys(total.layers) {
		info, ok := layerInfos[k]
		if !ok {
			return jsonResult{}, fmt.Errorf("layer metric %q has no unit", k)
		}
		fmt.Printf("  %-40s %14.4f %-6s %s\n", k, total.layers[k], info.unit, info.moves)
		res.Metrics[k] = jsonMetric{Value: total.layers[k], Unit: info.unit}
	}
	for k := range layerInfos {
		if _, ok := total.layers[k]; !ok {
			return jsonResult{}, fmt.Errorf("layer metric %q was not measured", k)
		}
	}
	return res, nil
}

func others(name string) []string {
	var out []string
	for _, w := range workloadNames {
		if w != name {
			out = append(out, w)
		}
	}
	return out
}

func result(o *outcome) jsonResult {
	return jsonResult{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]jsonMetric{},
	}
}

func printNotes(name string, o *outcome) {
	fmt.Printf("workload %s: attempted=%d failed=%d\n", name, o.attempted, o.failed)
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	for _, p := range o.problems {
		fmt.Println("  CHECK FAILED: " + p)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
