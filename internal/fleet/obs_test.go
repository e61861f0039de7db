package fleet

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// Observability is strictly passive: the full churn scenario produces
// bit-identical report histories with a registry and trace sink
// attached vs nothing, at Parallelism 1 vs 8. Timing lives only in the
// spans and the histogram — it never feeds a decision.
func TestFleetObservabilityParity(t *testing.T) {
	periods := 40
	if testing.Short() {
		periods = 12
	}
	scenario := soakScenario(23, periods)
	sf := soakFleet()

	plain := soakOptions(sf)
	ref := runSoak(t, scenario, plain, nil)

	for _, workers := range []int{1, 8} {
		observed := soakOptions(sf)
		observed.Core.Parallelism = workers
		observed.Metrics = obs.NewRegistry()
		spans := 0
		observed.TraceSink = func(sp *obs.Span) { spans++ }
		label := "obs on p" + string(rune('0'+workers))
		samePeriodReports(t, label, ref, runSoak(t, scenario, observed, nil))
		if spans != len(scenario) {
			t.Fatalf("%s: sink saw %d spans for %d periods", label, spans, len(scenario))
		}
	}
}

// The period counters agree with the reports they summarize: after any
// run, each counter equals the corresponding sum over the reports, the
// latency histogram holds one observation per period, and every
// period's dirty+replayed cells account for all occupied cells.
func TestFleetMetricsMatchReports(t *testing.T) {
	sf := soakFleet()
	op := soakOptions(sf)
	op.Cells = 2
	op.Metrics = obs.NewRegistry()
	o, err := New(op)
	if err != nil {
		t.Fatal(err)
	}
	scenario := soakScenario(7, 25)
	reps := make([]*PeriodReport, len(scenario))
	for p, tenants := range scenario {
		if reps[p], err = o.Period(sf.inputs(tenants)); err != nil {
			t.Fatalf("period %d: %v", p+1, err)
		}
	}
	var dirty, replayed, migrations, arrivals, departures, rejections int
	for _, rep := range reps {
		dirty += len(rep.DirtyCells)
		replayed += rep.ReplayedCells
		migrations += rep.Migrations
		arrivals += rep.Arrivals
		departures += rep.Departures
		rejections += len(rep.RejectedReasons)
	}
	m := &o.met
	if got := m.periods.Value(); got != uint64(len(reps)) {
		t.Errorf("periods counter = %d, want %d", got, len(reps))
	}
	if got := o.PeriodDurations().Count(); got != uint64(len(reps)) {
		t.Errorf("latency histogram count = %d, want %d", got, len(reps))
	}
	if got := m.dirtyCells.Value(); got != uint64(dirty) {
		t.Errorf("dirty cells counter = %d, want %d", got, dirty)
	}
	if got := m.replayedCells.Value(); got != uint64(replayed) {
		t.Errorf("replayed cells counter = %d, want %d", got, replayed)
	}
	if got := m.migrations.Value(); got != uint64(migrations) {
		t.Errorf("migrations counter = %d, want %d", got, migrations)
	}
	if got := m.arrivals.Value(); got != uint64(arrivals) {
		t.Errorf("arrivals counter = %d, want %d", got, arrivals)
	}
	if got := m.departures.Value(); got != uint64(departures) {
		t.Errorf("departures counter = %d, want %d", got, departures)
	}
	var rej uint64
	for _, c := range m.rejections {
		rej += c.Value()
	}
	if rej != uint64(rejections) {
		t.Errorf("rejection counters sum = %d, want %d", rej, rejections)
	}
	// The cache counters mirror ScoreStats, and the exposition includes
	// every fleet family.
	hits, misses, runs := o.ScoreStats()
	if int64(m.score.Hits.Value()) != hits || int64(m.score.Misses.Value()) != misses ||
		int64(m.score.Runs.Value()) != runs {
		t.Errorf("score cache counters (%d,%d,%d) disagree with ScoreStats (%d,%d,%d)",
			m.score.Hits.Value(), m.score.Misses.Value(), m.score.Runs.Value(), hits, misses, runs)
	}
	var b strings.Builder
	if err := op.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"vdesign_fleet_periods_total", "vdesign_fleet_period_duration_seconds_bucket",
		"vdesign_fleet_dirty_cells_total", "vdesign_score_cache_hits_total",
		"vdesign_placement_greedy_steps_total", "vdesign_dynmgmt_rebuilds_total",
	} {
		if !strings.Contains(b.String(), fam) {
			t.Errorf("exposition missing family %s", fam)
		}
	}
}

// spanChildren collects a span's children by name.
func spanChildren(sp *obs.Span, name string) []*obs.Span {
	var out []*obs.Span
	for _, c := range sp.Children() {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// The span-tree shape contract: a steady period is all replayed cell
// spans with no work below them; a one-tenant drift has exactly one
// dirty cell span carrying greedy / local-search / advisor children;
// a rebalancing period carries the rebalance span with its move count.
func TestFleetPeriodSpanShape(t *testing.T) {
	sf := deltaFleet()
	op := deltaOptions(sf)
	op.LocalSearch = 2
	var last *obs.Span
	op.TraceSink = func(sp *obs.Span) { last = sp }
	o, err := New(op)
	if err != nil {
		t.Fatal(err)
	}
	tenants := baseTenants()
	settle(t, o, sf.inputs(tenants), 12)

	// Steady: every cell child is a closed replay, no grandchildren.
	last = nil
	if _, err := o.Period(sf.inputs(tenants)); err != nil {
		t.Fatal(err)
	}
	if last == nil || last.Name != "period" {
		t.Fatalf("sink got %+v, want a period span", last)
	}
	if last.Duration() <= 0 {
		t.Error("steady period span not ended")
	}
	cells := spanChildren(last, "cell")
	if len(cells) == 0 {
		t.Fatal("steady period span has no cell children")
	}
	for _, cs := range cells {
		if v, ok := cs.Attr("replayed"); !ok || v != "true" {
			t.Errorf("steady cell span attrs missing replayed=true")
		}
		if len(cs.Children()) != 0 {
			t.Errorf("replayed cell span has children: %v", cs.Children())
		}
	}
	if v, ok := last.Attr("dirty_cells"); !ok || v != "0" {
		t.Errorf("steady period dirty_cells attr = %q", v)
	}

	// One-tenant drift: exactly one dirty cell, which carries the
	// placement phases and per-machine advisor runs.
	tenants[1].alpha *= 1.5
	last = nil
	if _, err := o.Period(sf.inputs(tenants)); err != nil {
		t.Fatal(err)
	}
	var dirtySpans []*obs.Span
	for _, cs := range spanChildren(last, "cell") {
		if _, ok := cs.Attr("dirty"); ok {
			dirtySpans = append(dirtySpans, cs)
		}
	}
	if len(dirtySpans) != 1 {
		t.Fatalf("drift period has %d dirty cell spans, want 1", len(dirtySpans))
	}
	ds := dirtySpans[0]
	if ds.Duration() <= 0 {
		t.Error("dirty cell span not ended")
	}
	if len(spanChildren(ds, "greedy")) == 0 {
		t.Error("dirty cell span has no greedy child")
	}
	if len(spanChildren(ds, "local-search")) == 0 {
		t.Error("dirty cell span has no local-search child (LocalSearch is on)")
	}
	advisors := spanChildren(ds, "advisor")
	if len(advisors) == 0 {
		t.Error("dirty cell span has no advisor children")
	}
	for _, a := range advisors {
		if _, ok := a.Attr("server"); !ok {
			t.Error("advisor span missing server attr")
		}
	}
	if _, ok := ds.Attr("migrations"); !ok {
		t.Error("dirty cell span missing migrations attr")
	}
	settle(t, o, sf.inputs(tenants), 12)

	// Rebalance: pin everyone into cell 0, lift the pins, and the first
	// period that moves tenants carries the rebalance span.
	op2 := deltaOptions(sf)
	op2.LocalSearch = 2
	op2.RebalanceBudget = 2
	op2.TraceSink = op.TraceSink
	o2, err := New(op2)
	if err != nil {
		t.Fatal(err)
	}
	var hot []int
	for s := 0; s < o2.Servers(); s++ {
		if o2.CellOf(s) == 0 {
			hot = append(hot, s)
		}
	}
	tenants = baseTenants()
	for i := range tenants {
		tenants[i].pin = hot[i%len(hot)] + 1
	}
	if _, err := o2.Period(sf.inputs(tenants)); err != nil {
		t.Fatal(err)
	}
	for i := range tenants {
		tenants[i].pin = 0
	}
	found := false
	for p := 0; p < 12 && !found; p++ {
		last = nil
		rep, err := o2.Period(sf.inputs(tenants))
		if err != nil {
			t.Fatal(err)
		}
		rb := spanChildren(last, "rebalance")
		if len(rb) != 1 {
			t.Fatalf("period span has %d rebalance children, want 1 (RebalanceBudget is on)", len(rb))
		}
		moves, ok := rb[0].Attr("moves")
		if !ok {
			t.Fatal("rebalance span missing moves attr")
		}
		if rep.RebalanceMoves > 0 {
			if moves == "0" {
				t.Fatalf("period moved %d tenants but rebalance span says 0", rep.RebalanceMoves)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no period rebalanced within 12 attempts")
	}
}

// Race audit (run under -race in CI): the public stat readers and a
// /metrics scrape are safe while periods, including churn, run. The
// readers only touch the cell shards' atomic counters and the registry,
// never orchestrator state.
func TestFleetStatReadersDuringPeriods(t *testing.T) {
	sf := soakFleet()
	op := soakOptions(sf)
	op.Cells = 2
	op.Core.Parallelism = 4
	op.Metrics = obs.NewRegistry()
	o, err := New(op)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				o.ScoreStats()
				o.CacheSizes()
				o.CacheEvictions()
				h := o.PeriodDurations()
				s := h.Snapshot()
				var total uint64
				for _, c := range s.Counts {
					total += c
				}
				if total != s.N {
					t.Errorf("torn histogram snapshot: N=%d but counts sum to %d", s.N, total)
					return
				}
				if q := h.Quantile(0.95); s.N > 0 && math.IsNaN(q) {
					t.Errorf("histogram quantile NaN with %d observations", s.N)
					return
				}
				var b strings.Builder
				if err := op.Metrics.WritePrometheus(&b); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}()
	}
	scenario := soakScenario(99, 30)
	for p, tenants := range scenario {
		if _, err := o.Period(sf.inputs(tenants)); err != nil {
			t.Fatalf("period %d: %v", p+1, err)
		}
	}
	close(stop)
	wg.Wait()
}
