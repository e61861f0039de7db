package main

// The traced run: the per-layer ledger. The same workload and seed run
// twice in one process. The first pass is untraced and is the reference;
// the second turns on the program's passive observability (its metrics
// registry and period span sink) and the benchmark's own spans, makes
// exactly as many timed operations, and must reproduce every report of
// the first pass (compared by digest, so that neither pass keeps its
// reports). A pass of direct layer calls on the run's own tenants
// and server groups then prices single calls into the layers below the
// fleet.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/obs"
)

// runtimeStats reads the process's GC cycle count and CPU split: GC
// time and the CPU time actually used (available minus idle).
type runtimeStats struct {
	gcCycles      uint64
	gcCPU, totCPU float64
}

func (a runtimeStats) minus(b runtimeStats) runtimeStats {
	return runtimeStats{gcCycles: a.gcCycles - b.gcCycles, gcCPU: a.gcCPU - b.gcCPU, totCPU: a.totCPU - b.totCPU}
}

func (a runtimeStats) plus(b runtimeStats) runtimeStats {
	return runtimeStats{gcCycles: a.gcCycles + b.gcCycles, gcCPU: a.gcCPU + b.gcCPU, totCPU: a.totCPU + b.totCPU}
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{gcCycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(),
		totCPU: s[2].Value.Float64() - s[3].Value.Float64()}
}

// counterFamilies names the program's metric families the ledger reads,
// by the short names it uses for them.
var counterFamilies = map[string]string{
	"dirty":          "vdesign_fleet_dirty_cells_total",
	"replayed":       "vdesign_fleet_replayed_cells_total",
	"migrations":     "vdesign_fleet_migrations_total",
	"rebalanceMoves": "vdesign_fleet_rebalance_moves_total",
	"greedySteps":    "vdesign_placement_greedy_steps_total",
	"lsMoves":        "vdesign_placement_local_search_moves_total",
	"scoreHits":      "vdesign_score_cache_hits_total",
	"scoreMisses":    "vdesign_score_cache_misses_total",
	"advisorRuns":    "vdesign_score_advisor_runs_total",
	"estHits":        "vdesign_estimate_cache_hits_total",
	"estMisses":      "vdesign_estimate_cache_misses_total",
	"rebuilds":       "vdesign_dynmgmt_rebuilds_total",
	"refinements":    "vdesign_dynmgmt_refinements_total",
}

// counters holds counter values by short name.
type counters map[string]float64

func readCounters(r *obs.Registry) counters {
	c := counters{}
	for short, family := range counterFamilies {
		c[short] = float64(r.Counter(family, "").Value())
	}
	return c
}

// addDelta adds after-before to c.
func (c counters) addDelta(after, before counters) {
	for k := range counterFamilies {
		c[k] += after[k] - before[k]
	}
}

// periodSpans is the program's span tree for one timed period, reduced
// to the ledger's per-layer times.
type periodSpans struct {
	vdesignSelf, fleetSelf                  time.Duration
	rebalance, greedy, localSearch, stayPut time.Duration
	advisor                                 time.Duration
	cells                                   []time.Duration // dirty cells' compute
}

// reduce folds one period's tree. A dirty cell's compute time is the sum
// of its children (greedy, local search, stay-put, one advisor span per
// machine), which run one after another inside the cell; its own span
// also covers the wait before a worker picks it up. Cell spans all open
// together before dispatch, so the part of the period span they cover is
// the longest of them; the rebalance pass runs after them.
func reduce(p periodTrace) periodSpans {
	var ps periodSpans
	root := p.tree
	ps.vdesignSelf = p.wall - root.Duration()
	var longestCell time.Duration
	for _, c := range root.Children() {
		switch c.Name {
		case "rebalance":
			ps.rebalance += c.Duration()
		case "cell":
			if c.Duration() > longestCell {
				longestCell = c.Duration()
			}
			if v, _ := c.Attr("dirty"); v != "true" {
				continue
			}
			var compute time.Duration
			for _, k := range c.Children() {
				compute += k.Duration()
				switch k.Name {
				case "greedy":
					ps.greedy += k.Duration()
				case "local-search":
					ps.localSearch += k.Duration()
				case "stay-put":
					ps.stayPut += k.Duration()
				case "advisor":
					ps.advisor += k.Duration()
				}
			}
			ps.cells = append(ps.cells, compute)
		}
	}
	ps.fleetSelf = root.Duration() - longestCell - ps.rebalance
	if ps.fleetSelf < 0 {
		ps.fleetSelf = 0
	}
	return ps
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runTraced is the traced run.
func runTraced(sh shape, seed int64, seconds float64, out string) (*result, error) {
	led := &ledger{}

	// Pass 1: the untraced reference, also the source of the runtime
	// (GC) readings, which tracing's own allocations would inflate. It
	// keeps one digest per period, so its heap is an untraced run's.
	ref, err := runFleets(sh, seed, seconds, led, nil, true, nil, false)
	if err != nil {
		return nil, err
	}
	var refWalls []float64
	for _, o := range ref.ops {
		refWalls = append(refWalls, ms(o.wall))
	}
	refDigests, rt, counts := ref.digests, ref.gc, ref.counts
	refPeriods := float64(len(ref.ops))
	cal := ref.cal
	ref = nil
	runtime.GC()

	// Pass 2: traced, the same operations on every fleet, whose reports
	// must all equal pass 1's.
	tr := newTracer()
	fr, err := runFleets(sh, seed, seconds, led, tr, true, counts, false)
	if err != nil {
		return nil, err
	}
	for j := range refDigests {
		if len(fr.digests[j]) != len(refDigests[j]) {
			led.failed++
			led.fail(0, fmt.Errorf("fleet %d: traced pass made %d periods, untraced %d", j, len(fr.digests[j]), len(refDigests[j])))
			continue
		}
		for i := range refDigests[j] {
			if fr.digests[j][i] != refDigests[j][i] {
				led.failed++
				led.fail(i, fmt.Errorf("fleet %d: report %d of the traced pass differs from the untraced pass's", j, i+1))
			}
		}
	}
	c := fr.layer
	var walls []float64
	live := 0.0
	for _, o := range fr.ops {
		walls = append(walls, ms(o.wall))
		live += float64(o.live)
	}
	periods := float64(len(fr.ops))
	live /= periods

	// Per-period span reductions over the timed periods.
	var vSelf, fSelf, rebal, greedy, ls, stay, adv []float64
	var cellMs, cellMax []float64
	for _, p := range tr.periods {
		if !p.timed || p.tree == nil {
			continue
		}
		ps := reduce(p)
		vSelf = append(vSelf, ms(ps.vdesignSelf))
		fSelf = append(fSelf, ms(ps.fleetSelf))
		rebal = append(rebal, ms(ps.rebalance))
		greedy = append(greedy, ms(ps.greedy))
		ls = append(ls, ms(ps.localSearch))
		stay = append(stay, ms(ps.stayPut))
		adv = append(adv, ms(ps.advisor))
		longest := 0.0
		for _, d := range ps.cells {
			cellMs = append(cellMs, ms(d))
			longest = max(longest, ms(d))
		}
		if len(ps.cells) > 0 {
			cellMax = append(cellMax, longest)
		}
	}

	// Snapshot and restore: on restart, the timed operations' own calls;
	// otherwise three of each on the last fleet, median.
	snapMs, restoreMs, err := snapshotRestore(fr.last, tr)
	if err != nil {
		return nil, err
	}
	var scores, estimates []float64
	for _, c := range fr.caches {
		scores = append(scores, float64(c[0]))
		estimates = append(estimates, float64(c[1]))
	}

	lp, err := layerPass(fr.last, seed)
	if err != nil {
		return nil, err
	}

	calMs := 0.0
	for _, d := range cal {
		calMs += ms(d)
	}
	calMs /= float64(len(cal))

	fmt.Fprintf(os.Stderr, "fleetbench: %s seed %d: traced %d timed operations; period_ms_p50 untraced %.3f, traced %.3f (tracing overhead %.3f ms)\n",
		sh.name, seed, len(fr.ops), quantile(refWalls, 0.5), quantile(walls, 0.5), quantile(walls, 0.5)-quantile(refWalls, 0.5))
	fmt.Fprintf(os.Stderr, "fleetbench: %s per period: %.1f advisor runs x %.1f estimates (%.1f cache misses + %.1f live tenants' change metrics) x %.1f us per estimate\n",
		sh.name, c["advisorRuns"]/periods, c["estMisses"]/periods+live, c["estMisses"]/periods, live, lp.estimateUs)
	if err := tr.write(out); err != nil {
		return nil, err
	}

	// core.estimates_per_period: the program counts estimate-cache
	// misses but not the change metric's estimates, one per live tenant
	// in Fleet.periodInputs, so that term is the live-tenant count, not a
	// measurement.
	m := map[string]metric{
		"vdesign.period_self_ms":                  {mean(vSelf), "ms"},
		"vdesign.snapshot_ms":                     {snapMs, "ms"},
		"vdesign.restore_ms":                      {restoreMs, "ms"},
		"fleet.period_self_ms":                    {mean(fSelf), "ms"},
		"fleet.dirty_cells_per_period":            {c["dirty"] / periods, "count"},
		"fleet.replayed_cells_per_period":         {c["replayed"] / periods, "count"},
		"fleet.cell_ms_p50":                       {orZero(median(cellMs)), "ms"},
		"fleet.cell_ms_max":                       {mean(cellMax), "ms"},
		"fleet.rebalance_ms_per_period":           {mean(rebal), "ms"},
		"fleet.migrations_per_period":             {c["migrations"] / periods, "count"},
		"fleet.rebalance_moves_per_period":        {c["rebalanceMoves"] / periods, "count"},
		"placement.greedy_ms_per_period":          {mean(greedy), "ms"},
		"placement.local_search_ms_per_period":    {mean(ls), "ms"},
		"placement.stay_put_ms_per_period":        {mean(stay), "ms"},
		"placement.greedy_steps_per_period":       {c["greedySteps"] / periods, "count"},
		"placement.local_search_moves_per_period": {c["lsMoves"] / periods, "count"},
		"score.advisor_runs_per_period":           {c["advisorRuns"] / periods, "count"},
		"score.hit_ratio":                         {ratio(c["scoreHits"], c["scoreHits"]+c["scoreMisses"]), "ratio"},
		"score.lookups_per_period":                {(c["scoreHits"] + c["scoreMisses"]) / periods, "count"},
		"score.estimate_misses_per_period":        {c["estMisses"] / periods, "count"},
		"score.estimate_hit_ratio":                {ratio(c["estHits"], c["estHits"]+c["estMisses"]), "ratio"},
		"score.entries":                           {mean(scores), "count"},
		"score.estimate_entries":                  {mean(estimates), "count"},
		"dynmgmt.advisor_ms_per_period":           {mean(adv), "ms"},
		"dynmgmt.refinements_per_period":          {c["refinements"] / periods, "count"},
		"dynmgmt.rebuilds_per_period":             {c["rebuilds"] / periods, "count"},
		"core.recommend_us":                       {lp.recommendUs, "us"},
		"core.estimator_calls_per_recommend":      {lp.callsPerRecommend, "count"},
		"core.estimate_us":                        {lp.estimateUs, "us"},
		"core.estimates_per_period":               {c["estMisses"]/periods + live, "count"},
		"pgsim.whatif_us_per_stmt":                {lp.pgWhatIfUs, "us"},
		"db2sim.whatif_us_per_stmt":               {lp.db2WhatIfUs, "us"},
		"opt.plan_us_per_stmt":                    {lp.planUs, "us"},
		"vmsim.run_workload_us":                   {lp.runWorkloadUs, "us"},
		"calibrate.ms_per_profile":                {calMs, "ms"},
		"runtime.gc_cycles_per_period":            {float64(rt.gcCycles) / refPeriods, "count"},
		"runtime.gc_cpu_fraction":                 {ratio(rt.gcCPU, rt.totCPU), "ratio"},
	}
	return &result{Correct: led.problems == 0, Attempted: led.attempted, Failed: led.failed, Metrics: m}, nil
}

// orZero maps the NaN of an empty sample to 0.
func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// snapshotRestore times Fleet.Snapshot and RestoreFleet. On restart they
// are the timed operations' own calls (mean). Otherwise the final fleet
// is snapshotted three times and restored three times into re-created
// fleets (median), in an untimed operation after the window.
func snapshotRestore(s *session, tr *tracer) (snapMs, restoreMs float64, err error) {
	var snaps, restores []float64
	if s.sh.restart {
		for _, op := range tr.ops {
			if op.Name != s.sh.name {
				continue
			}
			for _, c := range op.Children() {
				switch c.Name {
				case "Fleet.Snapshot":
					snaps = append(snaps, ms(c.Duration()))
				case "RestoreFleet":
					restores = append(restores, ms(c.Duration()))
				}
			}
		}
		return mean(snaps), mean(restores), nil
	}
	tr.beginOp("snapshot-restore", 0, false)
	defer tr.endOp()
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		snap, err := s.b.snapshot()
		if err != nil {
			return 0, 0, err
		}
		snaps = append(snaps, ms(time.Since(t0)))
		_, d, err := s.b.recreate(snap, tr)
		if err != nil {
			return 0, 0, err
		}
		restores = append(restores, ms(d))
	}
	return median(snaps), median(restores), nil
}
