package fleet

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// Delta periods: the dirty matrix (each kind of change dirties exactly
// the affected cells), replay parity (delta on ≡ delta off ≡ any
// Parallelism, bit for bit), zero-work steady periods, cross-cell
// rebalancing, pins, and mid-run topology edits.

// deltaFleet is four identical machines in two cells of two.
func deltaFleet() *simFleet {
	return &simFleet{
		profiles: []string{"big", "big", "big", "big"},
		factors:  map[string]float64{"big": 1},
	}
}

func deltaOptions(sf *simFleet) Options {
	return Options{
		Profiles:      sf.profiles,
		MigrationCost: 3,
		Core:          core.Options{Delta: 0.1, Parallelism: 1},
		Cells:         2,
	}
}

// settle runs steady periods until one replays every occupied cell,
// failing after maxPeriods.
func settle(t *testing.T, o *Orchestrator, ins []Tenant, maxPeriods int) {
	t.Helper()
	for p := 0; p < maxPeriods; p++ {
		rep, err := o.Period(ins)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.DirtyCells) == 0 && rep.RebalanceMoves == 0 {
			return
		}
	}
	t.Fatalf("fleet did not settle within %d periods", maxPeriods)
}

// wantDirty asserts a period's dirty-cell set.
func wantDirty(t *testing.T, label string, rep *PeriodReport, want ...int) {
	t.Helper()
	got := fmt.Sprint(rep.DirtyCells)
	if got != fmt.Sprint(want) {
		t.Fatalf("%s: dirty cells %v, want %v", label, rep.DirtyCells, want)
	}
}

// The dirty matrix: a steady period dirties nothing, and each kind of
// change — workload drift, an arrival, a departure, a QoS change, a pin
// change, an option change — dirties exactly the cells it touches while
// every other cell replays.
func TestFleetDeltaDirtyMatrix(t *testing.T) {
	sf := deltaFleet()
	o, err := New(deltaOptions(sf))
	if err != nil {
		t.Fatal(err)
	}
	tenants := baseTenants()
	ins := sf.inputs(tenants)
	settle(t, o, ins, 12)
	cellOf := func(id string) int {
		return o.CellOf(o.Assignment()[id])
	}
	bothCells := func() []int {
		a, b := cellOf("t0"), -1
		for _, st := range tenants {
			if c := cellOf(st.id); c != a {
				b = c
			}
		}
		if b < 0 {
			t.Fatal("all tenants landed in one cell")
		}
		if a > b {
			a, b = b, a
		}
		return []int{a, b}
	}
	occupied := bothCells()

	// Steady: zero dirty cells, every occupied cell replayed.
	rep, err := o.Period(ins)
	if err != nil {
		t.Fatal(err)
	}
	wantDirty(t, "steady", rep)
	if rep.ReplayedCells != len(occupied) {
		t.Fatalf("steady: replayed %d cells, want %d", rep.ReplayedCells, len(occupied))
	}

	// Workload drift dirties the drifted tenant's cell only.
	c2 := cellOf("t2")
	tenants[2].alpha *= 1.4
	rep, err = o.Period(sf.inputs(tenants))
	if err != nil {
		t.Fatal(err)
	}
	wantDirty(t, "drift", rep, c2)
	settle(t, o, sf.inputs(tenants), 12)

	// A QoS change is an input change even though the workload
	// fingerprint is unchanged.
	c3 := cellOf("t3")
	tenants[3].gain = 3
	rep, err = o.Period(sf.inputs(tenants))
	if err != nil {
		t.Fatal(err)
	}
	wantDirty(t, "qos change", rep, c3)
	settle(t, o, sf.inputs(tenants), 12)

	// An arrival dirties the cell it routes into.
	tenants = append(tenants, &simTenant{id: "t9", alpha: 20, gamma: 8})
	rep, err = o.Period(sf.inputs(tenants))
	if err != nil {
		t.Fatal(err)
	}
	wantDirty(t, "arrival", rep, cellOf("t9"))
	settle(t, o, sf.inputs(tenants), 12)

	// A departure dirties the departed tenant's cell.
	c9 := cellOf("t9")
	tenants = tenants[:len(tenants)-1]
	rep, err = o.Period(sf.inputs(tenants))
	if err != nil {
		t.Fatal(err)
	}
	wantDirty(t, "departure", rep, c9)
	settle(t, o, sf.inputs(tenants), 12)

	// Pinning a tenant to its own server is still an input change for its
	// cell (and only its cell).
	c0 := cellOf("t0")
	tenants[0].pin = o.Assignment()["t0"] + 1
	rep, err = o.Period(sf.inputs(tenants))
	if err != nil {
		t.Fatal(err)
	}
	wantDirty(t, "pin in place", rep, c0)
	if rep.Migrations != 0 {
		t.Fatalf("pinning in place migrated %d tenants", rep.Migrations)
	}
	settle(t, o, sf.inputs(tenants), 12)

	// A cross-cell pin dirties both cells and is a real migration.
	var target int
	for s := 0; s < o.Servers(); s++ {
		if o.CellOf(s) != c0 {
			target = s
			break
		}
	}
	tenants[0].pin = target + 1
	rep, err = o.Period(sf.inputs(tenants))
	if err != nil {
		t.Fatal(err)
	}
	wantDirty(t, "cross-cell pin", rep, occupied...)
	if rep.Migrations == 0 {
		t.Fatal("cross-cell pin should count as a migration")
	}
	if got := o.Assignment()["t0"]; got != target {
		t.Fatalf("t0 pinned to server %d but assigned to %d", target, got)
	}
	tenants[0].pin = 0
	if _, err := o.Period(sf.inputs(tenants)); err != nil {
		t.Fatal(err)
	}
	settle(t, o, sf.inputs(tenants), 12)

	// An option change dirties every occupied cell.
	op := deltaOptions(sf)
	op.Profiles = append([]string(nil), o.opts.Profiles...)
	op.MigrationCost = 5
	if err := o.SetOptions(op); err != nil {
		t.Fatal(err)
	}
	rep, err = o.Period(sf.inputs(tenants))
	if err != nil {
		t.Fatal(err)
	}
	wantDirty(t, "option change", rep, bothCells()...)
}

// A replayed steady period touches nothing at all: zero fresh advisor
// runs AND zero cache traffic — strictly less work than the cache-served
// recompute a period after SetOptions does.
func TestFleetDeltaSteadyPeriodDoesZeroWork(t *testing.T) {
	sf := deltaFleet()
	o, err := New(deltaOptions(sf))
	if err != nil {
		t.Fatal(err)
	}
	ins := sf.inputs(baseTenants())
	settle(t, o, ins, 12)
	h0, m0, r0 := o.ScoreStats()
	rep, err := o.Period(ins)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1, r1 := o.ScoreStats()
	if h1 != h0 || m1 != m0 || r1 != r0 {
		t.Fatalf("steady period touched the cache: hits %d→%d misses %d→%d runs %d→%d",
			h0, h1, m0, m1, r0, r1)
	}
	if len(rep.DirtyCells) != 0 || rep.ReplayedCells == 0 {
		t.Fatalf("steady period: dirty=%v replayed=%d", rep.DirtyCells, rep.ReplayedCells)
	}
}

// runSoakDeltaOff replays the scenario with delta periods off: after
// every period, SetOptions with the orchestrator's own options marks
// every cell dirty, so the next period recomputes instead of replaying.
func runSoakDeltaOff(t *testing.T, scenario [][]*simTenant, opts Options) []*PeriodReport {
	t.Helper()
	reps := runSoak(t, scenario, opts, func(_ int, o *Orchestrator) {
		if err := o.SetOptions(o.opts); err != nil {
			t.Fatal(err)
		}
	})
	for p, rep := range reps {
		if rep.ReplayedCells != 0 {
			t.Fatalf("delta-off period %d replayed %d cells", p+1, rep.ReplayedCells)
		}
	}
	return reps
}

// The delta acceptance matrix: the full churn scenario produces
// bit-identical report histories with delta periods on vs off, at
// Parallelism 1 vs 8, and with the score cache on vs off. Only
// DirtyCells/ReplayedCells (work descriptors) may differ, and
// samePeriodReports does not compare them.
func TestFleetDeltaParity(t *testing.T) {
	periods := 80
	if testing.Short() {
		periods = 15
	}
	scenario := soakScenario(17, periods)
	// Tack on a steady tail — the same final tenant snapshot repeated —
	// so every configuration sees identical inputs AND the delta run
	// provably reaches replay.
	for i := 0; i < 8; i++ {
		scenario = append(scenario, scenario[len(scenario)-1])
	}
	sf := soakFleet()
	base := soakOptions(sf)
	base.Cells = 2
	ref := runSoak(t, scenario, base, nil)

	samePeriodReports(t, "delta off", ref, runSoakDeltaOff(t, scenario, base))

	p8 := base
	p8.Core.Parallelism = 8
	samePeriodReports(t, "delta p8", ref, runSoak(t, scenario, p8, nil))

	noCache := base
	noCache.DisableScoreCache = true
	samePeriodReports(t, "delta cache off", ref, runSoak(t, scenario, noCache, nil))

	// And delta periods actually replay: the delta run must skip cells.
	replayed := 0
	for _, rep := range ref {
		replayed += rep.ReplayedCells
	}
	if replayed == 0 {
		t.Fatal("delta soak never replayed a cell")
	}

	// The budgeted rebalancer at budget 1 (the classic single-move
	// hottest→coldest configuration) with the auto-tuner explicitly off:
	// the moves it adopts must be bit-identical across delta replay,
	// parallelism, and the cache, like every other report field.
	reb := base
	reb.RebalanceBudget = 1
	reb.AutoTuneCells = false
	refReb := runSoak(t, scenario, reb, nil)
	samePeriodReports(t, "rebalance delta off", refReb, runSoakDeltaOff(t, scenario, reb))
	rebP8 := reb
	rebP8.Core.Parallelism = 8
	samePeriodReports(t, "rebalance p8", refReb, runSoak(t, scenario, rebP8, nil))
}

// Cross-cell rebalancing drains a lopsided fleet: tenants pinned into
// one cell are migrated to the idle cell once the pins lift, at most
// RebalanceBudget per period, effective the following period, with both
// cells recomputing and the moves reported.
func TestFleetRebalanceDrainsLopsidedFleet(t *testing.T) {
	sf := deltaFleet()
	op := deltaOptions(sf)
	op.RebalanceBudget = 2
	o, err := New(op)
	if err != nil {
		t.Fatal(err)
	}
	// Pin everyone into cell 0's servers (cells are {0,1} and {2,3} by
	// construction of the profile-grouped round-robin partition over
	// identical machines — derive them instead of assuming).
	var hotServers []int
	for s := 0; s < o.Servers(); s++ {
		if o.CellOf(s) == 0 {
			hotServers = append(hotServers, s)
		}
	}
	tenants := baseTenants()
	for i := range tenants {
		tenants[i].pin = hotServers[i%len(hotServers)] + 1
	}
	if _, err := o.Period(sf.inputs(tenants)); err != nil {
		t.Fatal(err)
	}
	for _, st := range tenants {
		if o.CellOf(o.Assignment()[st.id]) != 0 {
			t.Fatalf("tenant %s escaped its pin", st.id)
		}
	}
	// Lift the pins: the hot cell keeps its tenants (survivors never
	// leave their cell on their own) until rebalancing moves them.
	for i := range tenants {
		tenants[i].pin = 0
	}
	moved := map[string]int{} // id → server it was rebalanced to
	var firstMoves []string
	for p := 0; p < 12 && len(moved) == 0; p++ {
		rep, err := o.Period(sf.inputs(tenants))
		if err != nil {
			t.Fatal(err)
		}
		if rep.RebalanceMoves > op.RebalanceBudget {
			t.Fatalf("period moved %d tenants, bound is %d", rep.RebalanceMoves, op.RebalanceBudget)
		}
		if rep.RebalanceMoves != len(rep.Rebalanced) {
			t.Fatalf("RebalanceMoves %d but Rebalanced %v", rep.RebalanceMoves, rep.Rebalanced)
		}
		for _, id := range rep.Rebalanced {
			// The move is committed but effective next period: this
			// period's report still shows the old server.
			if c := o.CellOf(rep.Assignment[id]); c != 0 {
				t.Fatalf("rebalanced tenant %s already reported in cell %d", id, c)
			}
			moved[id] = o.Assignment()[id]
		}
		firstMoves = rep.Rebalanced
	}
	if len(moved) == 0 {
		t.Fatal("rebalancing never moved a tenant out of the hot cell")
	}
	// The committed assignment already routes the movers to the cold
	// cell, and the next period reports them there, dirtying both cells.
	rep, err := o.Period(sf.inputs(tenants))
	if err != nil {
		t.Fatal(err)
	}
	for id, s := range moved {
		if o.CellOf(s) == 0 {
			t.Fatalf("rebalanced tenant %s still on a hot-cell server", id)
		}
		if rep.Assignment[id] != s {
			t.Fatalf("tenant %s rebalanced to server %d but reported on %d", id, s, rep.Assignment[id])
		}
	}
	if len(rep.DirtyCells) < 2 {
		t.Fatalf("rebalance dirtied cells %v, want both involved cells (moves %v)",
			rep.DirtyCells, firstMoves)
	}
	// The fleet re-settles: once no move clears the migration penalty,
	// periods replay again.
	settle(t, o, sf.inputs(tenants), 20)
}

// Pin validation: out-of-range pins fail the period before any state
// changes.
func TestFleetPinValidation(t *testing.T) {
	sf := deltaFleet()
	o, err := New(deltaOptions(sf))
	if err != nil {
		t.Fatal(err)
	}
	tenants := baseTenants()
	tenants[0].pin = o.Servers() + 1
	_, err = o.Period(sf.inputs(tenants))
	if err == nil || !strings.Contains(err.Error(), "pinned to server") {
		t.Fatalf("out-of-range pin: %v", err)
	}
	if o.period != 0 {
		t.Fatalf("failed period advanced the period counter to %d", o.period)
	}
}

// Mid-run topology edits: AddServer grows the fleet without disturbing
// existing cells, RemoveServer refuses while occupied and retires a
// drained server, and pins to removed servers are rejected.
func TestFleetTopologyEdits(t *testing.T) {
	sf := deltaFleet()
	o, err := New(deltaOptions(sf))
	if err != nil {
		t.Fatal(err)
	}
	tenants := baseTenants()
	ins := sf.inputs(tenants)
	settle(t, o, ins, 12)

	// Both cells are full (Cells=2): a new server founds cell 2. The
	// fleet's profile list grows with it, and nothing is dirtied — the
	// new cell is empty.
	s4 := o.AddServer("big")
	if s4 != 4 || o.Servers() != 5 {
		t.Fatalf("AddServer returned %d, fleet size %d", s4, o.Servers())
	}
	newCell := o.CellOf(s4)
	if newCell != 2 {
		t.Fatalf("new server joined cell %d, want a new cell 2", newCell)
	}
	sf.profiles = append(sf.profiles, "big") // keep Measure's profile lookup in range
	rep, err := o.Period(ins)
	if err != nil {
		t.Fatal(err)
	}
	wantDirty(t, "add server (empty cell)", rep)

	// A second new server joins the cell with room — the one just made.
	s5 := o.AddServer("big")
	if got := o.CellOf(s5); got != newCell {
		t.Fatalf("server %d joined cell %d, want %d", s5, got, newCell)
	}
	sf.profiles = append(sf.profiles, "big")

	// RemoveServer refuses while the server hosts tenants, naming one.
	cur := o.Assignment()
	occupiedServer := -1
	for _, s := range cur {
		if occupiedServer < 0 || s < occupiedServer {
			occupiedServer = s
		}
	}
	err = o.RemoveServer(occupiedServer)
	if err == nil || !strings.Contains(err.Error(), "still hosts") {
		t.Fatalf("RemoveServer on occupied server: %v", err)
	}

	// Drain it with pins — every tenant of its cell, or the freed slots
	// would just attract the unpinned ones back — then retire it.
	movedOff := map[string]bool{}
	for i := range tenants {
		if o.CellOf(cur[tenants[i].id]) != o.CellOf(occupiedServer) {
			continue
		}
		for s := 0; s < 4; s++ {
			if s != occupiedServer && o.CellOf(s) == o.CellOf(occupiedServer) {
				tenants[i].pin = s + 1
				if cur[tenants[i].id] == occupiedServer {
					movedOff[tenants[i].id] = true
				}
				break
			}
		}
	}
	if len(movedOff) == 0 {
		t.Fatal("no tenant to drain")
	}
	if _, err := o.Period(sf.inputs(tenants)); err != nil {
		t.Fatal(err)
	}
	if err := o.RemoveServer(occupiedServer); err != nil {
		t.Fatalf("RemoveServer after drain: %v", err)
	}
	if o.CellOf(occupiedServer) != -1 {
		t.Fatal("removed server still in a cell")
	}
	if err := o.RemoveServer(occupiedServer); err == nil {
		t.Fatal("double remove should fail")
	}

	// Pinning to the removed server is rejected; unpinned periods never
	// use it again.
	tenants[0].pin = occupiedServer + 1
	_, err = o.Period(sf.inputs(tenants))
	if err == nil || !strings.Contains(err.Error(), "removed server") {
		t.Fatalf("pin to removed server: %v", err)
	}
	for i := range tenants {
		tenants[i].pin = 0
	}
	for p := 0; p < 6; p++ {
		rep, err := o.Period(sf.inputs(tenants))
		if err != nil {
			t.Fatal(err)
		}
		for id, s := range rep.Assignment {
			if s == occupiedServer {
				t.Fatalf("period placed %s on removed server %d", id, s)
			}
		}
	}
}

// A cell whose stored outcome a topology edit dropped still resets its
// managers when it empties: after RemoveServer retires one machine of a
// cell, every remaining tenant of that cell departs, and the machine
// that hosted them holds a fresh manager again.
func TestFleetEmptiedCellResetsManagersAfterRemoveServer(t *testing.T) {
	sf := deltaFleet()
	o, err := New(deltaOptions(sf))
	if err != nil {
		t.Fatal(err)
	}
	tenants := baseTenants()
	settle(t, o, sf.inputs(tenants), 12)
	cur := o.Assignment()
	c := o.CellOf(cur["t0"])
	var servers []int
	for s := 0; s < o.Servers(); s++ {
		if o.CellOf(s) == c {
			servers = append(servers, s)
		}
	}
	keep, drop := servers[0], servers[1]
	var stay []*simTenant
	for _, st := range tenants {
		if o.CellOf(cur[st.id]) == c {
			st.pin = keep + 1 // drain drop onto keep
		} else {
			stay = append(stay, st)
		}
	}
	if _, err := o.Period(sf.inputs(tenants)); err != nil {
		t.Fatal(err)
	}
	if err := o.RemoveServer(drop); err != nil {
		t.Fatal(err)
	}
	if o.machines[keep].mgr.Fresh() {
		t.Fatal("setup: the kept machine should hold its tenants' state")
	}
	if _, err := o.Period(sf.inputs(stay)); err != nil {
		t.Fatal(err)
	}
	if !o.machines[keep].mgr.Fresh() {
		t.Fatalf("server %d hosts no tenant but keeps manager state", keep)
	}
}

// SetOptions polices the fixed fields and applies the tunable ones.
func TestFleetSetOptions(t *testing.T) {
	sf := deltaFleet()
	o, err := New(deltaOptions(sf))
	if err != nil {
		t.Fatal(err)
	}
	bad := deltaOptions(sf)
	bad.Cells = 3
	if err := o.SetOptions(bad); err == nil {
		t.Fatal("changing Cells should fail")
	}
	bad = deltaOptions(sf)
	bad.Profiles = []string{"big"}
	if err := o.SetOptions(bad); err == nil {
		t.Fatal("changing Profiles should fail")
	}
	bad = deltaOptions(sf)
	bad.DisableScoreCache = true
	if err := o.SetOptions(bad); err == nil {
		t.Fatal("changing DisableScoreCache should fail")
	}
	bad = deltaOptions(sf)
	bad.MigrationCost = -1
	if err := o.SetOptions(bad); err == nil {
		t.Fatal("invalid options should fail")
	}
	bad = deltaOptions(sf)
	bad.CellP95Target = -0.5
	if err := o.SetOptions(bad); err == nil {
		t.Fatal("negative CellP95Target should fail")
	}
	// The auto-tuner and its target are live-tunable mid-run.
	good := deltaOptions(sf)
	good.MigrationCost = math.Inf(1)
	good.RebalanceBudget = 1
	good.AutoTuneCells = true
	good.CellP95Target = 0.25
	if err := o.SetOptions(good); err != nil {
		t.Fatal(err)
	}
}
