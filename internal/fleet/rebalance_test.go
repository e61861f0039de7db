package fleet

// Regression for the rebalance pressure bookkeeping: cell pressure is
// measured in RAW machine-seconds (Result.Costs), while the mover
// ranking inside the chosen hot cell is gain-weighted. Mixing the units
// — summing gain-weighted TotalCost into load[], or updating load[]
// with the mover's weighted cost after a move — makes a cell full of
// high-gain but computationally light tenants outrank a cell whose
// machines actually carry several times the compute.

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// Two populated cells and an empty one. Cell R carries ~530 raw
// machine-seconds of gain-1 tenants; cell W carries ~80 raw seconds of
// Gain=10 tenants, i.e. ~790 in gain-weighted units. Raw pressure says
// R is the cell to drain; weighted pressure says W. MigrationCost=100
// blocks every within-cell reshuffle and every move out of W (their
// improvements are an order of magnitude smaller), so exactly one move
// pays: draining R's heaviest shared tenant into the empty cell. A
// rebalancer that aggregates gain-weighted costs into load[] picks W
// first instead and the source assertion fails.
func TestFleetRebalanceRawPressureUnits(t *testing.T) {
	sf := &simFleet{
		profiles: []string{"big", "big", "big", "big", "big", "big"},
		factors:  map[string]float64{"big": 1},
	}
	op := deltaOptions(sf)
	op.Profiles = sf.profiles
	op.MigrationCost = 100
	op.RebalanceBudget = 2 // budget ≥ 2: the follow-up attempts must fail, not fire
	o, err := New(op)
	if err != nil {
		t.Fatal(err)
	}
	// Three cells of two machines; members derived, not assumed.
	var cells [3][]int
	for s := 0; s < o.Servers(); s++ {
		c := o.CellOf(s)
		if c < 0 || c > 2 {
			t.Fatalf("server %d in cell %d, want 3 cells", s, c)
		}
		cells[c] = append(cells[c], s)
	}
	// Cell 0 (raw-hot): three heavy gain-1 tenants, two sharing a
	// machine. Cell 1 (weighted-hot): three light Gain=10 tenants in the
	// same shape. Cell 2 stays empty. Pins seat the shape; releasing
	// them makes every tenant a rebalance candidate without moving any.
	tenants := []*simTenant{
		{id: "r0", alpha: 200, gamma: 20, pin: cells[0][0] + 1},
		{id: "r1", alpha: 190, gamma: 20, pin: cells[0][0] + 1},
		{id: "r2", alpha: 180, gamma: 20, pin: cells[0][1] + 1},
		{id: "w0", alpha: 30, gamma: 3, gain: 10, pin: cells[1][0] + 1},
		{id: "w1", alpha: 28, gamma: 3, gain: 10, pin: cells[1][0] + 1},
		{id: "w2", alpha: 26, gamma: 3, gain: 10, pin: cells[1][1] + 1},
	}
	settle(t, o, sf.inputs(tenants), 12)
	for _, st := range tenants {
		st.pin = 0
	}
	before := o.Assignment()
	rep, err := o.Period(sf.inputs(tenants))
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one move: the first drains the raw-hot cell, and with the
	// remaining budget neither follow-up attempt (into the weighted cell
	// or a second solo tenant into the empty cell) beats MigrationCost.
	if rep.RebalanceMoves != 1 || len(rep.Rebalanced) != 1 {
		t.Fatalf("want exactly 1 rebalance move, got %d (%v)", rep.RebalanceMoves, rep.Rebalanced)
	}
	if rep.Migrations != 0 {
		t.Fatalf("within-cell migrations must stay blocked, got %d", rep.Migrations)
	}
	mover := rep.Rebalanced[0]
	if !strings.HasPrefix(mover, "r") {
		t.Fatalf("mover %q came from the gain-weighted cell; raw pressure must pick the raw-hot cell", mover)
	}
	src := []int{}
	seen := map[int]bool{}
	for _, id := range rep.Rebalanced {
		if c := o.CellOf(before[id]); !seen[c] {
			seen[c] = true
			src = append(src, c)
		}
	}
	sort.Ints(src)
	if fmt.Sprint(src) != "[0]" {
		t.Fatalf("drained cells %v, want [0] (the raw-hot cell)", src)
	}
	// The adopted move is committed for the next period: the live
	// assignment (not the report's pre-move one) shows the new seat.
	if dst := o.CellOf(o.Assignment()[mover]); dst != 2 {
		t.Fatalf("mover landed in cell %d, want the empty cell 2", dst)
	}
}
