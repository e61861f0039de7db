package fleet

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// The fleet-scale soak: 1000 machines / 10000 tenants in cells of 8,
// 30 periods of seeded churn (workload drift, departures, arrivals)
// with bounded cross-cell rebalancing on. Every period the fleet must
// keep full coverage, move tenants across cells only through the
// rebalancer, and stay within the per-period rebalance budget; when the
// churn stops it must settle back into whole-fleet replay.

// soak1000Tenant is the analytic inverse-linear tenant family of the
// fleet-scale benchmark: deterministic parameters from (index, drift
// version), measured cost equal to the estimate.
func soak1000Tenant(i, ver int, profiles []string, factors map[string]float64) Tenant {
	alpha := 10 + float64((i*37+ver*13)%60)
	gamma := 5 + float64((i*23+ver*7)%40)
	id := fmt.Sprintf("w%d", i)
	return Tenant{
		ID:             id,
		Fingerprint:    fmt.Sprintf("%s@%d", id, ver),
		AvgEstPerQuery: alpha + gamma,
		EstFor: func(profile string) core.Estimator {
			f := factors[profile]
			return core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
				return f * (alpha/a[0] + gamma/a[1]), "p", nil
			})
		},
		Measure: func(server int, a core.Allocation) (float64, error) {
			f := factors[profiles[server]]
			return f * (alpha/a[0] + gamma/a[1]), nil
		},
	}
}

func TestFleetSoak1000(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-machine soak: skipped in -short")
	}
	if raceEnabled {
		t.Skip("1000-machine soak: skipped under -race (the 200-period soaks cover the concurrent paths)")
	}
	const (
		machines   = 1000
		tenantsN   = 10000
		periods    = 30
		rebalance  = 3
		drifts     = 30 // fingerprint bumps per period
		departures = 10 // departures (and matching arrivals) per period
	)
	profiles := make([]string, machines)
	factors := map[string]float64{"big": 1, "small": 2}
	for s := range profiles {
		profiles[s] = "big"
		if s%2 == 1 {
			profiles[s] = "small"
		}
	}
	reg := obs.NewRegistry()
	o, err := New(Options{
		Profiles:      profiles,
		MigrationCost: 0.1,
		Core: core.Options{
			Delta:       0.5,
			MinShare:    0.05,
			Parallelism: 4,
		},
		Cells:           8,
		RebalanceBudget: rebalance,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Each slot is a live tenant as (index, drift version); churn edits
	// slots in place so identity and ordering stay explicit.
	type slot struct{ idx, ver int }
	slots := make([]slot, tenantsN)
	for i := range slots {
		slots[i] = slot{idx: i}
	}
	next := tenantsN // fresh index for arrivals
	inputs := func() []Tenant {
		ins := make([]Tenant, len(slots))
		for i, s := range slots {
			ins[i] = soak1000Tenant(s.idx, s.ver, profiles, factors)
		}
		return ins
	}

	prevCell := map[string]int{}
	allowed := map[string]bool{} // rebalance moves reported last period

	// Metrics invariants, held at fleet scale every single period: the
	// counters only grow, the latency histogram gains exactly one
	// observation per period, and each period's dirty + replayed cell
	// counts account for every cell of the fleet (all 125 cells are
	// occupied from the first placement on).
	m := &o.met
	var prevCounts []uint64
	periodsRun := uint64(0)
	checkMetrics := func(period string, rep *PeriodReport) {
		t.Helper()
		periodsRun++
		counts := []uint64{
			m.periods.Value(), m.dirtyCells.Value(), m.replayedCells.Value(),
			m.migrations.Value(), m.rebalanceMoves.Value(),
			m.arrivals.Value(), m.departures.Value(), m.qosViolations.Value(),
			m.score.Hits.Value(), m.score.Misses.Value(), m.score.Runs.Value(),
		}
		for i, c := range counts {
			if prevCounts != nil && c < prevCounts[i] {
				t.Fatalf("%s: counter %d went backwards: %d -> %d", period, i, prevCounts[i], c)
			}
		}
		if got := m.periods.Value(); got != periodsRun {
			t.Fatalf("%s: periods counter %d, want %d", period, got, periodsRun)
		}
		if got := o.PeriodDurations().Count(); got != periodsRun {
			t.Fatalf("%s: latency histogram count %d, want %d", period, got, periodsRun)
		}
		var dirtyDelta, replayedDelta uint64
		dirtyDelta, replayedDelta = counts[1], counts[2]
		if prevCounts != nil {
			dirtyDelta -= prevCounts[1]
			replayedDelta -= prevCounts[2]
		}
		if int(dirtyDelta) != len(rep.DirtyCells) || int(replayedDelta) != rep.ReplayedCells {
			t.Fatalf("%s: counter deltas dirty=%d replayed=%d disagree with report dirty=%d replayed=%d",
				period, dirtyDelta, replayedDelta, len(rep.DirtyCells), rep.ReplayedCells)
		}
		if int(dirtyDelta+replayedDelta) != o.Cells() {
			t.Fatalf("%s: dirty %d + replayed %d cells, want all %d",
				period, dirtyDelta, replayedDelta, o.Cells())
		}
		prevCounts = counts
	}

	check := func(period string, rep *PeriodReport) {
		t.Helper()
		checkMetrics(period, rep)
		if len(rep.Assignment) != len(slots) {
			t.Fatalf("%s: %d tenants assigned, want %d", period, len(rep.Assignment), len(slots))
		}
		if rep.RebalanceMoves > rebalance || rep.RebalanceMoves != len(rep.Rebalanced) {
			t.Fatalf("%s: rebalance budget violated: %d moves (budget %d), %d ids",
				period, rep.RebalanceMoves, rebalance, len(rep.Rebalanced))
		}
		nextCell := make(map[string]int, len(rep.Assignment))
		for _, s := range slots {
			id := fmt.Sprintf("w%d", s.idx)
			srv, ok := rep.Assignment[id]
			if !ok {
				t.Fatalf("%s: tenant %s unassigned", period, id)
			}
			c := o.CellOf(srv)
			if pc, seen := prevCell[id]; seen && pc != c && !allowed[id] {
				t.Fatalf("%s: tenant %s silently crossed cell %d → %d", period, id, pc, c)
			}
			nextCell[id] = c
		}
		prevCell = nextCell
		allowed = make(map[string]bool, len(rep.Rebalanced))
		for _, id := range rep.Rebalanced {
			allowed[id] = true
		}
	}

	// Build, then warm until delta tracking recognizes the fleet as
	// unchanged — churn locality below is measured against a settled
	// fleet.
	built := false
	for p := 0; p < 12 && !built; p++ {
		rep, err := o.Period(inputs())
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("build %d", p), rep)
		built = len(rep.DirtyCells) == 0 && rep.RebalanceMoves == 0
	}
	if !built {
		t.Fatal("fleet did not settle after build within 12 periods")
	}

	rng := rand.New(rand.NewSource(42))
	moved := 0
	for p := 0; p < periods; p++ {
		for d := 0; d < drifts; d++ {
			slots[rng.Intn(len(slots))].ver++
		}
		for d := 0; d < departures; d++ {
			slots[rng.Intn(len(slots))] = slot{idx: next}
			next++
		}
		rep, err := o.Period(inputs())
		if err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		check(fmt.Sprintf("period %d", p), rep)
		moved += rep.RebalanceMoves
		if len(rep.DirtyCells) == 0 {
			t.Fatalf("period %d: churned period recomputed no cells", p)
		}
		if len(rep.DirtyCells) >= o.Cells() {
			t.Fatalf("period %d: churn of %d tenants dirtied all %d cells", p, drifts+2*departures, o.Cells())
		}
	}
	if moved > periods*rebalance {
		t.Fatalf("rebalancer exceeded its lifetime budget: %d moves", moved)
	}

	// Churn over: the fleet must settle back into whole-fleet replay.
	ins := inputs()
	for p := 0; p < 12; p++ {
		rep, err := o.Period(ins)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("settle %d", p), rep)
		if len(rep.DirtyCells) == 0 && rep.RebalanceMoves == 0 {
			if rep.ReplayedCells != o.Cells() {
				t.Fatalf("settled period replayed %d cells, want %d", rep.ReplayedCells, o.Cells())
			}
			return
		}
	}
	t.Fatal("fleet did not settle within 12 drift-free periods")
}

// The auto-tuning acceptance soak: a 1000-machine fleet deliberately
// started with eight oversized cells of 125 machines. Once the operator
// lowers the latency target to a third of the observed worst-cell p95,
// the controller must split the partition until every working cell's
// p95 sits inside the target band — within ten periods of the retarget.
func TestFleetSoak1000AutoTuneConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-machine soak: skipped in -short")
	}
	if raceEnabled {
		t.Skip("1000-machine soak: skipped under -race")
	}
	const (
		machines = 1000
		tenantsN = 1500
	)
	profiles := make([]string, machines)
	factors := map[string]float64{"big": 1, "small": 2}
	for s := range profiles {
		profiles[s] = "big"
		if s%2 == 1 {
			profiles[s] = "small"
		}
	}
	op := Options{
		Profiles:      profiles,
		MigrationCost: 0.1,
		Core: core.Options{
			Delta:       0.5,
			MinShare:    0.05,
			Parallelism: 4,
		},
		Cells:         125,
		AutoTuneCells: true,
		CellP95Target: 1e9, // quiet: no cell is ever this slow
	}
	o, err := New(op)
	if err != nil {
		t.Fatal(err)
	}
	ver := 0
	inputs := func() []Tenant {
		ins := make([]Tenant, tenantsN)
		for i := range ins {
			ins[i] = soak1000Tenant(i, ver, profiles, factors)
		}
		return ins
	}
	// Every period drifts every tenant: an all-cells-working fleet, the
	// regime the latency band governs (settled cells are invisible to
	// the controller by design — replay costs nothing to tune).
	period := func() *PeriodReport {
		t.Helper()
		ver++
		rep, err := o.Period(inputs())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	occupied := func() []int {
		seen := map[int]bool{}
		var out []int
		for s := 0; s < o.Servers(); s++ {
			if c := o.CellOf(s); !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
		return out
	}

	// Build, then fill the latency windows under the quiet target.
	for p := 0; p < 3; p++ {
		if rep := period(); len(rep.CellSplits) != 0 || len(rep.CellMerges) != 0 {
			t.Fatalf("build period edited the partition under a quiet target: %+v", rep)
		}
	}
	start := occupied()
	if len(start) != 8 {
		t.Fatalf("initial partition has %d cells, want 8", len(start))
	}
	maxP95 := 0.0
	for _, c := range start {
		p95 := o.CellLatencyP95(c)
		if p95 <= 0 {
			t.Fatalf("cell %d has no p95 after 3 working periods", c)
		}
		if p95 > maxP95 {
			maxP95 = p95
		}
	}

	// Retarget: the worst cell is 3x out of band, so the controller has
	// to split at least one generation, and re-observe each new half
	// through its warmup before it may split again.
	target := maxP95 / 3
	op.CellP95Target = target
	if err := o.SetOptions(op); err != nil {
		t.Fatal(err)
	}
	// Converged: a period in which the controller split nothing and every
	// cell with an observed p95 sits at or under the target. Cells still
	// in post-edit warmup (p95 < 0) don't block convergence — they exist
	// precisely because the controller just edited them (late splits, or
	// the one-merge-per-period packing of sub-floor cells) and have no
	// signal yet. Requiring the full first split wave (>= 8 splits, one
	// per oversized seed cell) keeps the check from passing vacuously
	// before the controller has acted.
	splits := 0
	converged := -1
	for p := 1; p <= 10; p++ {
		rep := period()
		splits += len(rep.CellSplits)
		observed, worst := 0, 0.0
		for _, c := range occupied() {
			if p95 := o.CellLatencyP95(c); p95 > 0 {
				observed++
				if p95 > worst {
					worst = p95
				}
			}
		}
		t.Logf("p%d: splits=%v merges=%v occupied=%d observed=%d worst=%.3fs target=%.3fs",
			p, rep.CellSplits, rep.CellMerges, len(occupied()), observed, worst, target)
		if len(rep.CellSplits) == 0 && splits >= 8 && observed > 0 && worst <= target {
			converged = p
			break
		}
	}
	if converged < 0 {
		var p95s []string
		for _, c := range occupied() {
			p95s = append(p95s, fmt.Sprintf("%.4fs", o.CellLatencyP95(c)))
		}
		t.Fatalf("cell p95 not within target %.4fs after 10 periods (%d splits, cells %v)",
			target, splits, p95s)
	}
	if splits < 8 {
		t.Fatalf("converged with %d splits, want every initial cell split (>= 8)", splits)
	}
	if got := occupied(); len(got) < 16 {
		t.Fatalf("converged with %d occupied cells, want at least 16", len(got))
	}
	t.Logf("converged in %d periods after retarget: %d splits, %d cells, target %.4fs (was %.4fs)",
		converged, splits, len(occupied()), target, maxP95)
}

// The correlated hot-spot acceptance soak: ten of a 1000-machine
// fleet's 125 cells are heated at once by pinned heavy tenants. Once
// the pins lift, a rebalance budget of 8 must drain every hot cell
// (source at least one heavy move from each) within three periods,
// while the classic single-move budget can have touched at most three
// cells in the same time — the correlated spot needs ten-plus periods.
func TestFleetSoak1000CorrelatedDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-machine soak: skipped in -short")
	}
	if raceEnabled {
		t.Skip("1000-machine soak: skipped under -race")
	}
	const (
		machines = 1000
		lightsN  = 3000
		hotCells = 10
		perCell  = 10 // pinned heavies per hot cell
	)
	profiles := make([]string, machines)
	factors := map[string]float64{"big": 1, "small": 2}
	for s := range profiles {
		profiles[s] = "big"
		if s%2 == 1 {
			profiles[s] = "small"
		}
	}
	heavy := func(cell, k, pin int) Tenant {
		alpha, gamma := 500.0, 50.0
		id := fmt.Sprintf("hot%d-%d", cell, k)
		return Tenant{
			ID:             id,
			Fingerprint:    id,
			Pin:            pin,
			AvgEstPerQuery: alpha + gamma,
			EstFor: func(profile string) core.Estimator {
				f := factors[profile]
				return core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
					return f * (alpha/a[0] + gamma/a[1]), "p", nil
				})
			},
			Measure: func(server int, a core.Allocation) (float64, error) {
				f := factors[profiles[server]]
				return f * (alpha/a[0] + gamma/a[1]), nil
			},
		}
	}

	run := func(budget int) (drained map[int]bool, periodsUsed int) {
		t.Helper()
		o, err := New(Options{
			Profiles:      profiles,
			MigrationCost: 0.1,
			Core: core.Options{
				Delta:       0.5,
				MinShare:    0.05,
				Parallelism: 4,
			},
			Cells:           8,
			RebalanceBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		cellServers := map[int][]int{}
		for s := 0; s < o.Servers(); s++ {
			c := o.CellOf(s)
			cellServers[c] = append(cellServers[c], s)
		}
		lights := make([]Tenant, lightsN)
		for i := range lights {
			lights[i] = soak1000Tenant(i, 0, profiles, factors)
		}
		settle(t, o, lights, 12)

		// Heat cells 0..9: ten pinned heavies each, two of the cell's
		// eight machines doubled up. Pinned tenants cannot move, so the
		// heat stays put while the fleet re-settles around it (light
		// tenants may drain from the hot cells — that alone cannot
		// relieve the pinned load).
		pinOf := func(h, k int) int { return cellServers[h][k%len(cellServers[h])] + 1 }
		heated := append([]Tenant(nil), lights...)
		for h := 0; h < hotCells; h++ {
			for k := 0; k < perCell; k++ {
				heated = append(heated, heavy(h, k, pinOf(h, k)))
			}
		}
		for p := 0; p < 8; p++ {
			if _, err := o.Period(heated); err != nil {
				t.Fatal(err)
			}
		}

		// Lift the pins: the heavies are now the heaviest movers in the
		// fleet and the ranked-pair pass must spread its budget across
		// the ten hot cells instead of grinding one per period.
		released := append([]Tenant(nil), lights...)
		for h := 0; h < hotCells; h++ {
			for k := 0; k < perCell; k++ {
				released = append(released, heavy(h, k, 0))
			}
		}
		drained = map[int]bool{}
		for p := 1; p <= 3; p++ {
			rep, err := o.Period(released)
			if err != nil {
				t.Fatal(err)
			}
			if rep.RebalanceMoves > budget {
				t.Fatalf("budget %d period %d adopted %d moves", budget, p, rep.RebalanceMoves)
			}
			if len(rep.CellSplits) != 0 || len(rep.CellMerges) != 0 {
				t.Fatalf("auto-tuner off but partition edited: %+v", rep)
			}
			for _, id := range rep.Rebalanced {
				var h, k int
				if _, err := fmt.Sscanf(id, "hot%d-%d", &h, &k); err == nil {
					drained[h] = true
				}
			}
			periodsUsed = p
			if len(drained) == hotCells {
				break
			}
		}
		return drained, periodsUsed
	}

	drained, periods := run(8)
	if len(drained) != hotCells {
		t.Fatalf("budget 8: only %d of %d hot cells drained within 3 periods: %v",
			len(drained), hotCells, drained)
	}
	t.Logf("budget 8 drained all %d hot cells in %d periods", hotCells, periods)

	// The single-move baseline: at most one adopted move per period, so
	// after the same three periods at most three hot cells can have
	// drained — the ten-cell spot needs at least ten periods.
	drained, _ = run(1)
	if len(drained) > 3 {
		t.Fatalf("budget 1 drained %d cells in 3 periods, expected at most 3", len(drained))
	}
	if len(drained) == 0 {
		t.Fatal("budget 1 drained nothing: the baseline rebalancer is broken")
	}
	t.Logf("budget 1 drained %d hot cells in 3 periods", len(drained))
}
