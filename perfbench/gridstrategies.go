package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"tycoongrid/internal/auction"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/experiment"
	"tycoongrid/internal/metrics"
)

// grid-strategies: the paper's prediction-driven meta-scheduling end to end
// on the single-threaded simulator — experiment.RunStrategies on the default
// parameters with the seed from the command line, the default
// single-auctioneer tick and the default predictor path. It bypasses HTTP,
// the WAL and sharding. Each strategy's world is one RunStrategies call with
// that strategy alone, which replays exactly the world the four-strategy
// call would (every world is built from the same seed) and lets each world
// be timed on its own.

// gridStrategies is pinned, so registering a new strategy does not change
// the workload.
var gridStrategies = []string{"current-price", "predicted-mean", "predicted-quantile", "portfolio"}

// gridCounters are the registry counters a grid-strategies run reads, by
// layer metric name. Their deltas measure the work done, so every run of
// one invocation must reproduce them exactly.
var gridCounters = []struct{ layer, family string }{
	{"grid.ticks", "grid_reallocation_ticks_total"},
	{"auction.clears", "auction_clears_total"},
	{"bank.internal_moves", "bank_internal_moves_total"},
	{"bank.transfers", "bank_transfers_total"},
	{"token.redemptions", "token_redemptions_total"},
	{"pricefeed.samples", "pricefeed_samples_recorded_total"},
	{"arc.meta_picks", "arc_meta_picks_total"},
}

const gridSetupReps = 50

func gridParams(seed int64, small bool) experiment.StrategiesParams {
	p := experiment.DefaultStrategiesParams()
	p.World.Seed = seed
	if small {
		p.Hours = 6
	}
	return p
}

// measuredJobs is how many measured jobs RunStrategies submits per world.
func measuredJobs(p experiment.StrategiesParams) int {
	horizon := time.Duration(p.Hours * float64(time.Hour))
	n := 0
	for at := p.MeasureStart; at+p.MeasureDeadline <= horizon; at += p.MeasureEvery {
		n++
	}
	return n
}

func runGridStrategies(cfg runConfig) (*outcome, error) {
	p := gridParams(cfg.seed, cfg.small)
	o := newOutcome()
	interval := p.World.Interval
	if interval <= 0 {
		interval = auction.DefaultInterval
	}
	perWorld := float64(time.Duration(p.Hours*float64(time.Hour)) / interval)
	want := measuredJobs(p)
	budget := bank.MustCredits(p.MeasureBudget)

	// RunStrategies builds its worlds internally, so the set-up that can be
	// timed apart is the exported constructor of a world of the same shape.
	gauge := &speedGauge{}
	gauge.sample()
	var setups []float64
	for r := 0; r < gridSetupReps; r++ {
		t := time.Now()
		w, err := experiment.NewWorld(p.World)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, since(t))
		runtime.KeepAlive(w)
	}

	var profile bytes.Buffer
	if cfg.rec != nil {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, err
		}
	}
	var worldMS, heaps, rates []float64
	var cpu time.Duration
	var firstTable string
	var firstDeltas []uint64
	rt0 := readRT()
	peak := startPeakLive()
	start := time.Now()
	runs := 0
	for ; ; runs++ {
		snap0 := metrics.Default().Snapshot()
		var table strings.Builder
		runElapsed := 0.0
		for _, name := range gridStrategies {
			q := p
			q.Strategies = []string{name}
			gauge.sample()
			peak.reset()
			spanStart := cfg.rec.now()
			c0, t0 := cpuTime(), time.Now()
			res, err := experiment.RunStrategies(q)
			d := since(t0)
			cpu += cpuTime() - c0
			cfg.rec.add(uint64(runs+1), 0, 0, "experiment.world", spanStart, cfg.rec.now())
			if err != nil {
				peak.stop()
				if cfg.rec != nil {
					pprof.StopCPUProfile()
				}
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			heaps = append(heaps, peak.mb())
			worldMS = append(worldMS, d*1e3)
			runElapsed += d
			table.WriteString(res.String())
			for _, oc := range res.Outcomes {
				o.attempted += int64(want)
				o.failed += int64(want - oc.Jobs)
				o.check(oc.Jobs == want && oc.Failed == 0,
					"run %d %s: %d of %d measured jobs finished, %d failed", runs, name, oc.Jobs, want, oc.Failed)
				o.check(oc.MeanCost <= budget.Credits(),
					"run %d %s: mean cost %.3f exceeds the budget %.3f", runs, name, oc.MeanCost, budget.Credits())
			}
		}
		rates = append(rates, perWorld*float64(len(gridStrategies))/runElapsed)
		snap1 := metrics.Default().Snapshot()
		deltas := make([]uint64, len(gridCounters))
		for i, c := range gridCounters {
			deltas[i] = counterTotal(snap1, c.family) - counterTotal(snap0, c.family)
			o.check(deltas[i] > 0, "registry counter %s did not move", c.family)
		}
		if runs == 0 {
			firstTable, firstDeltas = table.String(), deltas
		} else {
			o.check(table.String() == firstTable, "run %d: outcome table differs from run 0:\n%s\nvs\n%s",
				runs, table.String(), firstTable)
			for i, c := range gridCounters {
				o.check(deltas[i] == firstDeltas[i], "run %d: %s moved by %d, run 0 by %d",
					runs, c.family, deltas[i], firstDeltas[i])
			}
		}
		per := since(start) / float64(runs+1)
		if since(start)+per > cfg.seconds {
			runs++
			break
		}
	}
	peak.stop()
	rt1 := readRT()
	gauge.sample()

	worlds := float64(len(worldMS))
	o.e2e["throughput_per_s"] = median(rates)
	o.e2e["latency_p50_ms"] = median(worldMS)
	o.e2e["latency_tail_ms"] = quantile(worldMS, tailQ)
	o.e2e["cpu_us_per_op"] = float64(cpu.Microseconds()) / (perWorld * worlds)
	o.e2e["live_heap_mb"] = slices.Max(heaps)
	o.e2e["setup_s"] = median(setups)
	scaleTimings(o, gauge)
	o.notef("%d runs of the %d pinned strategies, %.0f simulated %v intervals per world, %d measured jobs per world;"+
		" throughput_per_s is the median over runs of simulated intervals per wall second", runs, len(gridStrategies), perWorld, interval, want)
	o.notef("latency_p50_ms and latency_tail_ms are the wall time of one world (one strategy's %g h replay);"+
		" the tail is p%d of %d worlds (%d beyond it: a batch run has few samples)",
		p.Hours, int(tailQ*100), len(worldMS), beyond(worldMS, tailQ))
	o.notef("setup_s is the median of %d experiment.NewWorld constructions of the workload's world config;"+
		" RunStrategies builds its own worlds internally, so their set-up is inside the timed worlds", gridSetupReps)
	o.notef("live_heap_mb is the largest post-GC live heap while any world ran (a GC that marks at a world's fullest" +
		" is not guaranteed in every world, so the maximum over worlds is the steady reading)")
	o.notef("not checked: per-world money conservation (RunStrategies keeps each world's bank internal)")

	if cfg.rec != nil {
		pprof.StopCPUProfile()
		shares, samples, err := cpuShares(profile.Bytes())
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		o.check(samples > 0, "empty cpu profile")
		for _, b := range cpuBuckets {
			o.layer("cpu_share."+b, shares[b])
		}
		for i, c := range gridCounters {
			o.layer(c.layer, float64(firstDeltas[i]))
		}
		addRuntimeLayers(o, "grid-strategies", rt0, rt1, int64(perWorld*worlds))
		o.notef("cpu_share.* from %d profile samples, by the innermost tycoongrid package on each stack (gc: collector frames)", samples)
	}
	return o, nil
}
