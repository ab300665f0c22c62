package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/marketplane"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
)

// market-tick: a steady market of host markets over two marketplane
// shards, one worker each. Every 10 s virtual interval, each job opens an
// escrow account, funds it, prices random candidate hosts from the plane's
// price cache and enqueues a bid on the cheapest; then each worker clears
// its shard and settles expired bids' charges and refunds into one shared
// bank. This is the market tick — discovery, enqueue, clear, settlement —
// and it uses the bank without signatures, one new account per job, with
// two workers contending for its lock. The bank is reached only through the
// methods agent.Ledger names (CreateAccount, Balance, MoveInternal).
//
// A world only grows (escrow accounts are never closed), so a run is a
// sequence of fixed-size episodes: each builds a fresh world (the set-up),
// runs its arrival intervals, drains until every bid has expired, and is
// checked.

type marketParams struct {
	hosts      int
	shards     int
	jobs       int // arriving per interval
	candidates int // hosts priced per job
	lifetime   int // intervals from a bid's first clear to its deadline
	users      int
	intervals  int // arrival intervals per episode
	budget     bank.Amount
	traceEvery int // traced runs record spans in one steady interval of traceEvery

	// skipSettle, when set, leaves that bid's settlement undone: the
	// benchmark's own tests use it to prove the checks catch a lost one.
	skipSettle auction.BidderID
}

func marketDefaults(small bool) marketParams {
	p := marketParams{
		hosts: 10000, shards: 2, jobs: 2000, candidates: 32, lifetime: 3,
		users: 1000, intervals: 60, budget: 2 * bank.Credit, traceEvery: 4,
	}
	if small {
		p.hosts, p.jobs, p.users, p.intervals, p.traceEvery = 400, 100, 40, 10, 1
	}
	return p
}

const marketInterval = auction.DefaultInterval

// marketInputs are made from the seed once per run; every episode replays
// them into a fresh world.
type marketInputs struct {
	op      *pki.Identity
	hostIDs []string
	escrow  []bank.AccountID // by job
	user    []int32          // by job
	cands   []uint16         // candidates hosts per job, job-major
}

func makeMarketInputs(seed int64, p marketParams) (*marketInputs, error) {
	op, err := identity(seed, "market-operator")
	if err != nil {
		return nil, err
	}
	n := p.jobs * p.intervals
	in := &marketInputs{
		op:      op,
		hostIDs: make([]string, p.hosts),
		escrow:  make([]bank.AccountID, n),
		user:    make([]int32, n),
		cands:   make([]uint16, n*p.candidates),
	}
	for h := range in.hostIDs {
		in.hostIDs[h] = fmt.Sprintf("h%05d", h)
	}
	src := rand.New(rand.NewPCG(uint64(seed), 0x6d61726b6574))
	for j := 0; j < n; j++ {
		in.escrow[j] = bank.AccountID(fmt.Sprintf("esc-%08d", j))
		in.user[j] = int32(src.IntN(p.users))
	}
	for i := range in.cands {
		in.cands[i] = uint16(src.IntN(p.hosts))
	}
	return in, nil
}

// fixedClock stamps every ledger entry with the simulation epoch: the
// market runs in virtual time, so wall-clock stamps would mean nothing.
type fixedClock struct{}

func (fixedClock) Now() time.Time { return sim.Epoch }

// marketWorld is one episode's market: host markets, plane and bank.
type marketWorld struct {
	plane     *marketplane.Plane
	bank      *bank.Bank
	users     []bank.AccountID
	earn      []bank.AccountID // by host
	deposited bank.Amount
}

// buildMarket is the set-up setup_s times: market, plane and bank
// construction, user funding and one earnings account per host.
func buildMarket(in *marketInputs, p marketParams) (*marketWorld, error) {
	markets := make([]marketplane.HostMarket, p.hosts)
	for h := range markets {
		m, err := auction.NewMarket(auction.Config{HostID: in.hostIDs[h], CapacityMHz: 2800, Start: sim.Epoch})
		if err != nil {
			return nil, err
		}
		markets[h] = m
	}
	plane, err := marketplane.New(marketplane.Config{Shards: p.shards, Markets: markets})
	if err != nil {
		return nil, err
	}
	w := &marketWorld{
		plane: plane,
		// Settlement writes millions of ledger entries; keep a bounded
		// audit window as the experiment harnesses do.
		bank:  bank.New(in.op, fixedClock{}, bank.WithLedgerRetention(8192)),
		users: make([]bank.AccountID, p.users),
		earn:  make([]bank.AccountID, p.hosts),
	}
	perUser := bank.Amount(p.jobs*p.intervals/p.users+p.jobs) * p.budget
	for u := range w.users {
		w.users[u] = bank.AccountID(fmt.Sprintf("user%04d", u))
		if _, err := w.bank.CreateAccount(w.users[u], in.op.Public()); err != nil {
			return nil, err
		}
		if err := w.bank.Deposit(w.users[u], perUser, "perfbench allocation"); err != nil {
			return nil, err
		}
		w.deposited += perUser
	}
	for h := range w.earn {
		w.earn[h] = bank.AccountID("earn-" + in.hostIDs[h])
		if _, err := w.bank.CreateAccount(w.earn[h], in.op.Public()); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// escrowState is one live bid's money movement until its expiry interval,
// when the charges go to the host and any leftover back to the user.
type escrowState struct {
	bidder  auction.BidderID
	host    int
	charged bank.Amount
	refund  bank.Amount
}

// marketWorker drives one shard: it submits the jobs j with j % shards ==
// index, clears its shard, and settles the bids on its shard's hosts.
type marketWorker struct {
	index    int
	pending  map[auction.BidderID]*escrowState
	expiring map[int][]*escrowState // by settlement interval
	settled  int
	moves    int
	results  int // TickShard results, this interval
	mismatch []string
	err      error
	spans    []span
}

func (w *marketWorker) fail(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// episode is one world's run; the durations are of its intervals.
type episode struct {
	setup     float64
	elapsed   float64 // all intervals, drain included
	steady    []float64
	cpu       time.Duration
	rt        rtStats
	jobs      int
	settled   int
	moves     int
	heapMB    float64
	problems  []string
	clears    []float64 // results per steady interval
	enqueued  uint64
	applied   uint64
	unsettled int
}

func runEpisode(in *marketInputs, p marketParams, rec *recorder, epoch int) (*episode, error) {
	ep := &episode{}
	t0 := time.Now()
	world, err := buildMarket(in, p)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ep.setup = since(t0)

	workers := make([]*marketWorker, p.shards)
	for i := range workers {
		workers[i] = &marketWorker{
			index:    i,
			pending:  make(map[auction.BidderID]*escrowState, 2*p.jobs*(p.lifetime+1)/p.shards),
			expiring: map[int][]*escrowState{},
		}
	}
	snap0 := metrics.Default().Snapshot()
	rt0 := readRT()
	cpu0 := cpuTime()
	total := p.intervals + p.lifetime + 1
	for t := 0; t < total; t++ {
		traced := rec != nil && t > p.lifetime && t < p.intervals && t%p.traceEvery == 0
		var root, trace uint64
		var rootStart int64
		if traced {
			trace = uint64(epoch)<<32 | uint64(t)
			root, rootStart = rec.newID(), rec.now()
		}
		start := time.Now()
		fanOut(workers, func(w *marketWorker) { w.submit(in, p, world, t, trace, root, rec) })
		fanOut(workers, func(w *marketWorker) { w.clear(in, p, world, t, trace, root, rec) })
		d := since(start)
		ep.elapsed += d
		if t > p.lifetime && t < p.intervals {
			ep.steady = append(ep.steady, d*1e3)
			n := 0
			for _, w := range workers {
				n += w.results
			}
			ep.clears = append(ep.clears, float64(n))
		}
		if traced {
			rec.add(trace, root, 0, "interval", rootStart, rec.now())
			for _, w := range workers {
				rec.batch(w.spans)
				w.spans = w.spans[:0]
			}
		}
	}
	ep.cpu = cpuTime() - cpu0
	ep.rt = readRT().minus(rt0)
	snap1 := metrics.Default().Snapshot()
	ep.heapMB = liveHeapMB()
	runtime.KeepAlive(world)
	runtime.KeepAlive(workers)

	ep.jobs = p.jobs * p.intervals
	ep.enqueued = counterTotal(snap1, "marketplane_bids_enqueued_total") - counterTotal(snap0, "marketplane_bids_enqueued_total")
	ep.applied = counterTotal(snap1, "marketplane_bids_applied_total") - counterTotal(snap0, "marketplane_bids_applied_total")
	for _, w := range workers {
		if w.err != nil {
			return nil, w.err
		}
		ep.settled += w.settled
		ep.moves += w.moves
		ep.unsettled += len(w.pending)
		ep.problems = append(ep.problems, w.mismatch...)
	}
	ep.problems = append(ep.problems, checkMarket(world, in, p, ep)...)
	return ep, nil
}

// fanOut runs f on every worker concurrently and waits for all of them.
func fanOut(workers []*marketWorker, f func(*marketWorker)) {
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *marketWorker) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

// spanOf appends a span to the worker's local buffer when tracing.
func (w *marketWorker) spanOf(rec *recorder, trace, parent uint64, name string, start int64) {
	if trace != 0 {
		w.spans = append(w.spans, span{trace: trace, id: rec.newID(), parent: parent, name: name, start: start, end: rec.now()})
	}
}

func (w *marketWorker) submit(in *marketInputs, p marketParams, world *marketWorld, t int, trace, root uint64, rec *recorder) {
	if t >= p.intervals {
		return
	}
	deadline := sim.Epoch.Add(time.Duration(t+1+p.lifetime) * marketInterval)
	var ts int64
	for j := t*p.jobs + w.index; j < (t+1)*p.jobs; j += p.shards {
		esc := in.escrow[j]
		if trace != 0 {
			ts = rec.now()
		}
		if _, err := world.bank.CreateAccount(esc, in.op.Public()); err != nil {
			w.fail(err)
			continue
		}
		w.spanOf(rec, trace, root, "bank.create_account", ts)
		if trace != 0 {
			ts = rec.now()
		}
		if err := world.bank.MoveInternal(in.op, world.users[in.user[j]], esc, p.budget, bank.EntryTransfer, ""); err != nil {
			w.fail(fmt.Errorf("funding %s: %w", esc, err))
			continue
		}
		w.moves++
		w.spanOf(rec, trace, root, "bank.move", ts)

		if trace != 0 {
			ts = rec.now()
		}
		best, bestPrice := -1, 0.0
		for _, h := range in.cands[j*p.candidates : (j+1)*p.candidates] {
			if price := world.plane.PriceAt(int(h)); best < 0 || price < bestPrice {
				best, bestPrice = int(h), price
			}
		}
		w.spanOf(rec, trace, root, "marketplane.discovery", ts)
		if trace != 0 {
			ts = rec.now()
		}
		world.plane.EnqueueBidAt(best, auction.BidderID(esc), p.budget, deadline)
		w.spanOf(rec, trace, root, "marketplane.enqueue", ts)
	}
}

func (w *marketWorker) clear(in *marketInputs, p marketParams, world *marketWorld, t int, trace, root uint64, rec *recorder) {
	clearAt := sim.Epoch.Add(time.Duration(t+1) * marketInterval)
	var ts int64
	if trace != 0 {
		ts = rec.now()
	}
	results := world.plane.TickShard(w.index, clearAt, nil)
	w.spanOf(rec, trace, root, "marketplane.clear", ts)
	w.results = len(results)
	for _, r := range results {
		for _, ch := range r.Charges {
			w.state(world, r.Host, ch.Bidder, t, p).charged += ch.Amount
		}
		for _, rf := range r.Refunds {
			w.state(world, r.Host, rf.Bidder, t, p).refund += rf.Amount
		}
	}
	for _, es := range w.expiring[t] {
		delete(w.pending, es.bidder)
		if es.bidder == p.skipSettle {
			continue
		}
		if es.charged+es.refund != p.budget {
			w.mismatch = append(w.mismatch, fmt.Sprintf("bid %s: charges %v + refunds %v != budget %v",
				es.bidder, es.charged, es.refund, p.budget))
		}
		esc := bank.AccountID(es.bidder)
		if es.charged > 0 {
			w.move(rec, trace, root, world, in.op, esc, world.earn[es.host], es.charged, bank.EntryCharge)
		}
		if es.refund > 0 {
			j, _ := strconv.Atoi(string(es.bidder)[len("esc-"):])
			w.move(rec, trace, root, world, in.op, esc, world.users[in.user[j]], es.refund, bank.EntryRefund)
		}
		w.settled++
	}
	delete(w.expiring, t)
}

func (w *marketWorker) move(rec *recorder, trace, root uint64, world *marketWorld, op *pki.Identity,
	from, to bank.AccountID, amount bank.Amount, kind bank.EntryKind) {
	var ts int64
	if trace != 0 {
		ts = rec.now()
	}
	if err := world.bank.MoveInternal(op, from, to, amount, kind, ""); err != nil {
		w.fail(fmt.Errorf("settling %s -> %s: %w", from, to, err))
		return
	}
	w.moves++
	w.spanOf(rec, trace, root, "bank.move", ts)
}

// state returns the bid's escrow state, opening it at its first clear: a bid
// first cleared at interval t expires, and is settled, at t + lifetime.
func (w *marketWorker) state(world *marketWorld, host string, bidder auction.BidderID, t int, p marketParams) *escrowState {
	if es := w.pending[bidder]; es != nil {
		return es
	}
	h, _ := world.plane.HostIndex(host)
	es := &escrowState{bidder: bidder, host: h}
	w.pending[bidder] = es
	w.expiring[t+p.lifetime] = append(w.expiring[t+p.lifetime], es)
	return es
}

// checkMarket: money is conserved, every bid was applied and settled, and
// after the drain every escrow account is empty and no hold is open.
func checkMarket(world *marketWorld, in *marketInputs, p marketParams, ep *episode) []string {
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	if total := world.bank.TotalMoney(); total != world.deposited {
		fail("money not conserved: %v in the bank, %v deposited", total, world.deposited)
	}
	if h := world.bank.Holds(); len(h) != 0 {
		fail("%d holds open after the drain", len(h))
	}
	full := 0
	for _, esc := range in.escrow[:ep.jobs] {
		if bal, err := world.bank.Balance(esc); err != nil || bal != 0 {
			full++
		}
	}
	if full > 0 {
		fail("%d escrow accounts not empty after the drain", full)
	}
	if ep.enqueued == 0 || ep.applied == 0 {
		fail("registry counters marketplane_bids_enqueued_total/applied_total did not move")
	}
	if ep.enqueued != uint64(ep.jobs) || ep.applied != ep.enqueued {
		fail("%d jobs, %d bids enqueued, %d applied", ep.jobs, ep.enqueued, ep.applied)
	}
	skipped := 0
	if p.skipSettle != "" {
		skipped = 1
	}
	if ep.unsettled != 0 || ep.settled+skipped != ep.jobs {
		fail("%d of %d bids settled, %d still pending", ep.settled, ep.jobs, ep.unsettled)
	}
	return problems
}

func (a rtStats) minus(b rtStats) rtStats {
	return rtStats{a.mallocs - b.mallocs, a.numGC - b.numGC, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a rtStats) plus(b rtStats) rtStats {
	return rtStats{a.mallocs + b.mallocs, a.numGC + b.numGC, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

func runMarketTick(cfg runConfig) (*outcome, error) {
	return runMarket(cfg, marketDefaults(cfg.small))
}

func runMarket(cfg runConfig, p marketParams) (*outcome, error) {
	in, err := makeMarketInputs(cfg.seed, p)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	o := newOutcome()
	var setups, steady, heaps, clears, rates []float64
	var elapsed float64
	var cpu time.Duration
	var rt rtStats
	settled, moves, jobs := 0, 0, 0
	gauge := &speedGauge{}
	start := time.Now()
	for e := 0; ; e++ {
		gauge.sample()
		ep, err := runEpisode(in, p, cfg.rec, e)
		if err != nil {
			return nil, err
		}
		o.attempted += int64(ep.jobs)
		o.failed += int64(ep.jobs - ep.settled)
		for _, pr := range ep.problems {
			o.check(false, "episode %d: %s", e, pr)
		}
		setups = append(setups, ep.setup)
		steady = append(steady, ep.steady...)
		heaps = append(heaps, ep.heapMB)
		clears = append(clears, ep.clears...)
		elapsed += ep.elapsed
		rates = append(rates, float64(ep.settled)/ep.elapsed)
		cpu += ep.cpu
		rt = rt.plus(ep.rt)
		settled += ep.settled
		moves += ep.moves
		jobs += ep.jobs
		per := since(start) / float64(e+1)
		if since(start)+per > cfg.seconds {
			break
		}
	}
	gauge.sample()
	if settled == 0 {
		return nil, errors.New("no job settled")
	}
	o.e2e["throughput_per_s"] = median(rates)
	o.e2e["latency_p50_ms"] = median(steady)
	o.e2e["latency_tail_ms"] = quantile(steady, tailQ)
	o.e2e["cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(settled)
	o.e2e["live_heap_mb"] = median(heaps)
	o.e2e["setup_s"] = median(setups)
	scaleTimings(o, gauge)
	o.notef("%d hosts over %d shards (one worker each), %d jobs per 10 s interval, %d candidates per job, bids live %d intervals",
		p.hosts, p.shards, p.jobs, p.candidates, p.lifetime+1)
	o.notef("%d episodes of %d arrival intervals plus %d drain intervals; %d jobs settled in %.2f s of intervals;"+
		" throughput_per_s is the median over episodes of jobs settled per second of intervals",
		len(setups), p.intervals, p.lifetime+1, settled, elapsed)
	o.notef("latency_tail_ms is p%d of %d steady intervals (%d beyond it)", int(tailQ*100), len(steady), beyond(steady, tailQ))
	o.notef("setup_s is the median of %d world constructions (10k markets, plane, bank with users and host accounts)", len(setups))
	o.notef("live_heap_mb is the median over episodes of the heap after a forced GC at the end of the episode, world reachable")

	if rec := cfg.rec; rec != nil {
		o.layer("marketplane.discovery_us", median(rec.durations("marketplane.discovery")))
		o.layer("marketplane.enqueue_us", median(rec.durations("marketplane.enqueue")))
		o.layer("marketplane.clear_ms", median(rec.durations("marketplane.clear"))/1e3)
		o.layer("bank.create_account_us", median(rec.durations("bank.create_account")))
		o.layer("bank.settle_us", median(rec.durations("bank.move")))
		o.layer("bank.moves_per_job", float64(moves)/float64(jobs))
		o.layer("auction.clears_per_interval", median(clears))
		skew, residual := marketIntervals(rec)
		o.check(len(skew) > 0, "no traced intervals")
		o.layer("marketplane.shard_skew", median(skew))
		o.layer("market-tick.residual_ms", median(residual))
		o.notef("residual: interval time no layer span covers (loop, rng, escrow bookkeeping, barrier waits) = %.3f ms",
			o.layers["market-tick.residual_ms"])
		addRuntimeLayers(o, "market-tick", rtStats{}, rt, int64(settled))
	}
	return o, nil
}

// marketIntervals returns, per traced interval, the slower shard's clear
// time over the faster one's, and the interval time (ms) that no layer
// span covers.
func marketIntervals(rec *recorder) (skew, residual []float64) {
	type acc struct {
		root   span
		clears []float64
		layers []span
	}
	byTrace := map[uint64]*acc{}
	get := func(t uint64) *acc {
		a := byTrace[t]
		if a == nil {
			a = &acc{}
			byTrace[t] = a
		}
		return a
	}
	for _, s := range rec.spans {
		a := get(s.trace)
		switch s.name {
		case "interval":
			a.root = s
		case "marketplane.clear":
			a.clears = append(a.clears, float64(s.end-s.start))
			a.layers = append(a.layers, s)
		default:
			a.layers = append(a.layers, s)
		}
	}
	for _, a := range byTrace {
		if a.root.end == 0 || len(a.clears) < 2 {
			continue
		}
		lo, hi := a.clears[0], a.clears[0]
		for _, c := range a.clears[1:] {
			lo, hi = min(lo, c), max(hi, c)
		}
		skew = append(skew, hi/lo)
		covered := unionNS(a.layers, a.root.start, a.root.end)
		residual = append(residual, float64(a.root.end-a.root.start-covered)/1e6)
	}
	return skew, residual
}
