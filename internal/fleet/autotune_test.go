package fleet

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// Adaptive cell scheduling: partition edits (splits and merges) must
// never change report content — tenants travel with their machines —
// and the auto-tune controller's decisions must be invisible in the
// report stream at any Parallelism. The budgeted rebalancer must drain
// correlated hot cells in one period where the single-move budget needs
// one period per cell.

// samePeriodContent is samePeriodReports across two DIFFERENT
// partitions of the same fleet: all per-tenant and per-machine content
// must match exactly, while the fleet-level cost rollups — summed
// cell-by-cell in the merge — may regroup the float additions and drift
// by an ULP when the cell boundaries differ.
func samePeriodContent(t *testing.T, label string, a, b []*PeriodReport) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d periods", label, len(a), len(b))
	}
	near := func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	exact := make([]*PeriodReport, 0, len(a))
	for p := range a {
		x, y := a[p], b[p]
		if !near(x.TotalCost, y.TotalCost) || !near(x.CandidateCost, y.CandidateCost) ||
			!near(x.StayCost, y.StayCost) ||
			!near(x.LocalSearchImprovement, y.LocalSearchImprovement) {
			t.Fatalf("%s period %d: costs diverge beyond rounding: %+v vs %+v", label, p+1, x, y)
		}
		// Everything else must agree bit for bit; feed samePeriodReports
		// a copy of x whose rollups are forced equal so only the content
		// fields are compared exactly.
		cx := *x
		cx.TotalCost, cx.CandidateCost = y.TotalCost, y.CandidateCost
		cx.StayCost, cx.LocalSearchImprovement = y.StayCost, y.LocalSearchImprovement
		exact = append(exact, &cx)
	}
	samePeriodReports(t, label, exact, b)
}

// occupiedCellSet derives the live partition through the public CellOf
// surface: the sorted list of cells that currently own servers.
func occupiedCellSet(o *Orchestrator) []int {
	seen := map[int]bool{}
	var out []int
	for s := 0; s < o.Servers(); s++ {
		if c := o.CellOf(s); c >= 0 && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// A mid-run split followed by a mid-run merge leaves the report stream
// bit-identical to an orchestrator whose partition never changed, while
// dirtying exactly the cells whose membership was edited.
func TestFleetSplitMergeReportParity(t *testing.T) {
	sf := deltaFleet()
	ctl, err := New(deltaOptions(sf))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := New(deltaOptions(sf))
	if err != nil {
		t.Fatal(err)
	}
	tenants := baseTenants()
	var ctlReps, expReps []*PeriodReport
	run := func() (*PeriodReport, *PeriodReport) {
		t.Helper()
		ins := sf.inputs(tenants)
		a, err := ctl.Period(ins)
		if err != nil {
			t.Fatal(err)
		}
		b, err := exp.Period(ins)
		if err != nil {
			t.Fatal(err)
		}
		ctlReps, expReps = append(ctlReps, a), append(expReps, b)
		return a, b
	}
	for i := 0; i < 5; i++ {
		run()
	}

	// Split the cell owning server 0. Assignment is untouched, both
	// halves are dirty next period, and no migration is charged.
	c0 := exp.CellOf(0)
	before := exp.Assignment()
	nc := exp.splitCell(c0)
	if nc == c0 {
		t.Fatalf("splitCell(%d) did not found a new cell", c0)
	}
	if got := occupiedCellSet(exp); len(got) != 3 {
		t.Fatalf("after split: occupied cells %v, want 3", got)
	}
	for id, s := range exp.Assignment() {
		if before[id] != s {
			t.Fatalf("split moved tenant %s: server %d -> %d", id, before[id], s)
		}
	}
	_, rep := run() // steady period: only the edited halves recompute
	if rep.Migrations != 0 {
		t.Fatalf("split period charged %d migrations", rep.Migrations)
	}
	dirty := fmt.Sprint(rep.DirtyCells)
	want := fmt.Sprint([]int{c0, nc})
	if c0 > nc {
		want = fmt.Sprint([]int{nc, c0})
	}
	if dirty != want {
		t.Fatalf("split period dirty cells %s, want %s", dirty, want)
	}
	tenants[0].alpha *= 1.3
	run()
	tenants[4].gamma *= 1.5
	run()
	samePeriodReports(t, "after split", ctlReps, expReps)

	// Merge the halves back; reports stay identical under further drift.
	exp.mergeCells(c0, nc)
	if got := occupiedCellSet(exp); len(got) != 2 {
		t.Fatalf("after merge: occupied cells %v, want 2", got)
	}
	_, rep = run()
	if rep.Migrations != 0 {
		t.Fatalf("merge period charged %d migrations", rep.Migrations)
	}
	found := false
	for _, c := range rep.DirtyCells {
		found = found || c == c0
	}
	if !found {
		t.Fatalf("merge period dirty cells %v missing absorbed cell %d", rep.DirtyCells, c0)
	}
	tenants[2].alpha *= 1.6
	run()
	run()
	samePeriodReports(t, "after merge", ctlReps, expReps)
}

// The controller end to end: an impossible target splits every working
// multi-machine cell down to singletons, a huge target merges pairs
// back up to the Cells bound, and the whole episode is report-identical
// to an untuned fleet and to itself at Parallelism 8 — including the
// split/merge decision sequence, which depends on observation counts,
// not on wall-clock luck.
func TestFleetAutoTuneController(t *testing.T) {
	sf := deltaFleet()
	tuned := deltaOptions(sf)
	tuned.AutoTuneCells = true
	tuned.CellP95Target = 1e-12 // everything is too slow: split when possible
	tunedP8 := tuned
	tunedP8.Core.Parallelism = 8

	ref, err := New(deltaOptions(sf))
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(tuned)
	if err != nil {
		t.Fatal(err)
	}
	o8, err := New(tunedP8)
	if err != nil {
		t.Fatal(err)
	}
	orcs := []*Orchestrator{ref, o, o8}

	tenants := baseTenants()
	var splits, merges int
	history := make([][]*PeriodReport, len(orcs))
	run := func() []*PeriodReport {
		t.Helper()
		// Drift every tenant so every cell recomputes and is observed —
		// settled cells are invisible to the controller by design.
		for _, st := range tenants {
			st.alpha *= 1.01
		}
		ins := sf.inputs(tenants)
		reps := make([]*PeriodReport, len(orcs))
		for i, oo := range orcs {
			rep, err := oo.Period(ins)
			if err != nil {
				t.Fatal(err)
			}
			reps[i] = rep
			history[i] = append(history[i], rep)
		}
		if a, b := fmt.Sprint(reps[1].CellSplits), fmt.Sprint(reps[2].CellSplits); a != b {
			t.Fatalf("split decisions diverge across parallelism: %s vs %s", a, b)
		}
		if a, b := fmt.Sprint(reps[1].CellMerges), fmt.Sprint(reps[2].CellMerges); a != b {
			t.Fatalf("merge decisions diverge across parallelism: %s vs %s", a, b)
		}
		if len(reps[0].CellSplits) != 0 || len(reps[0].CellMerges) != 0 {
			t.Fatalf("untuned fleet reported partition edits: %+v", reps[0])
		}
		splits += len(reps[1].CellSplits)
		merges += len(reps[1].CellMerges)
		return reps
	}

	// Split phase: both initial cells have two machines; each splits as
	// soon as its window holds autotuneMinObs observations, and the four
	// singleton halves can never split again.
	for p := 0; p < 6; p++ {
		run()
	}
	if splits != 2 {
		t.Fatalf("split phase performed %d splits, want 2", splits)
	}
	if got := occupiedCellSet(o); len(got) != 4 {
		t.Fatalf("split phase left occupied cells %v, want 4 singletons", got)
	}
	if o.CellLatencyP95(-1) != -1 || o.CellLatencyP95(1<<20) != -1 {
		t.Fatal("CellLatencyP95 out of range should be -1")
	}
	for _, c := range occupiedCellSet(o) {
		if p95 := o.CellLatencyP95(c); p95 <= 0 {
			t.Fatalf("cell %d has been running every period but p95 = %v", c, p95)
		}
	}

	// Merge phase: raise the target so every observed cell sits under
	// the band floor. One pair merges per period until the Cells bound
	// (combined size 2) stops further pairing at two cells of two.
	for i, oo := range orcs {
		op := deltaOptions(sf)
		if i > 0 {
			op.AutoTuneCells = true
			op.CellP95Target = 1e6
		}
		if oo == o8 {
			op.Core.Parallelism = 8
		}
		if err := oo.SetOptions(op); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 6; p++ {
		run()
	}
	if merges != 2 {
		t.Fatalf("merge phase performed %d merges, want 2", merges)
	}
	if got := occupiedCellSet(o); len(got) != 2 {
		t.Fatalf("merge phase left occupied cells %v, want 2 pairs", got)
	}

	// Against the untuned fleet the partitions differ, so the cell-grouped
	// cost rollups may differ in the last ULP; all content is exact. The
	// two tuned runs walk the same partition trajectory and must agree
	// bit for bit despite the different worker counts.
	samePeriodContent(t, "autotune vs untuned", history[0], history[1])
	samePeriodReports(t, "autotune p1 vs p8", history[1], history[2])
}

// Auto-tune option validation: the controller needs a cell-size bound
// to respect, and the target band cannot be negative.
func TestFleetAutoTuneValidation(t *testing.T) {
	sf := deltaFleet()
	op := deltaOptions(sf)
	op.AutoTuneCells = true
	op.Cells = 0
	if _, err := New(op); err == nil {
		t.Fatal("AutoTuneCells without Cells should error")
	}
	op = deltaOptions(sf)
	op.CellP95Target = -1
	if _, err := New(op); err == nil {
		t.Fatal("negative CellP95Target should error")
	}
	op = deltaOptions(sf)
	op.AutoTuneCells = true
	op.CellP95Target = 0 // 0 falls back to the default target
	if _, err := New(op); err != nil {
		t.Fatal(err)
	}
}

// Correlated rebalance draining at unit scale: two hot cells heated by
// pinned-then-released heavy tenants. At budget 1 the pass reproduces
// the classic one-move-per-period rebalancer (hottest cell first); at
// budget 4 both hot cells drain within a single period.
func TestFleetRebalanceBudgetCorrelated(t *testing.T) {
	build := func(budget int) (*Orchestrator, *simFleet, []*simTenant, [3][]int) {
		t.Helper()
		sf := &simFleet{
			profiles: []string{"big", "big", "big", "big", "big", "big"},
			factors:  map[string]float64{"big": 1},
		}
		op := deltaOptions(sf)
		op.Profiles = sf.profiles
		op.MigrationCost = 0.5
		op.RebalanceBudget = budget
		o, err := New(op)
		if err != nil {
			t.Fatal(err)
		}
		// Three cells of two; members derived, not assumed.
		var cells [3][]int
		for s := 0; s < o.Servers(); s++ {
			c := o.CellOf(s)
			if c < 0 || c > 2 {
				t.Fatalf("server %d in cell %d, want 3 cells", s, c)
			}
			cells[c] = append(cells[c], s)
		}
		// Four heavy tenants per hot cell (cells 0 and 1), two pinned to
		// each machine — saturated, so the cell-local optimizer cannot
		// spread them and only a cross-cell move relieves the sharing.
		var tenants []*simTenant
		for _, hot := range []int{0, 1} {
			for k := 0; k < 4; k++ {
				tenants = append(tenants, &simTenant{
					id:    fmt.Sprintf("h%d-%d", hot, k),
					alpha: 200, gamma: 20,
					pin: cells[hot][k%2] + 1,
				})
			}
		}
		ins := sf.inputs(tenants)
		settle(t, o, ins, 12)
		return o, sf, tenants, cells
	}
	unpin := func(tenants []*simTenant) {
		for _, st := range tenants {
			st.pin = 0
		}
	}
	sources := func(o *Orchestrator, before map[string]int, rep *PeriodReport) []int {
		seen := map[int]bool{}
		var out []int
		for _, id := range rep.Rebalanced {
			if c := o.CellOf(before[id]); !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
		sort.Ints(out)
		return out
	}

	// Budget 1: one move per period, hottest cell first — cell 1 only
	// drains a period after cell 0.
	o, sf, tenants, _ := build(1)
	unpin(tenants)
	before := o.Assignment()
	rep, err := o.Period(sf.inputs(tenants))
	if err != nil {
		t.Fatal(err)
	}
	if rep.RebalanceMoves != 1 {
		t.Fatalf("budget 1 period 1: %d moves, want 1", rep.RebalanceMoves)
	}
	if src := sources(o, before, rep); fmt.Sprint(src) != "[0]" {
		t.Fatalf("budget 1 period 1 drained cells %v, want [0]", src)
	}
	before = o.Assignment()
	rep, err = o.Period(sf.inputs(tenants))
	if err != nil {
		t.Fatal(err)
	}
	if rep.RebalanceMoves != 1 {
		t.Fatalf("budget 1 period 2: %d moves, want 1", rep.RebalanceMoves)
	}
	if src := sources(o, before, rep); fmt.Sprint(src) != "[1]" {
		t.Fatalf("budget 1 period 2 drained cells %v, want [1]", src)
	}

	// Budget 4: both hot cells drain in the same period, and the pass
	// stops short of the budget once no remaining move pays.
	o, sf, tenants, _ = build(4)
	unpin(tenants)
	before = o.Assignment()
	rep, err = o.Period(sf.inputs(tenants))
	if err != nil {
		t.Fatal(err)
	}
	if rep.RebalanceMoves < 2 || rep.RebalanceMoves > 4 {
		t.Fatalf("budget 4 period 1: %d moves, want 2..4", rep.RebalanceMoves)
	}
	if src := sources(o, before, rep); fmt.Sprint(src) != "[0 1]" {
		t.Fatalf("budget 4 period 1 drained cells %v, want [0 1]", src)
	}
}
