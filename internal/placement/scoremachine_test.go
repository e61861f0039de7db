package placement

import "testing"

// ScoreMachine is the single-machine what-if behind the fleet's
// cross-cell rebalancer; WithinLimits is the QoS predicate the
// rebalancer applies to the priced destination run. Together they must
// answer "what would this machine cost with this tenant, and does
// everyone still fit?" consistently with admission.
func TestScoreMachineAndWithinLimits(t *testing.T) {
	tenants := []Tenant{
		{Name: "heavy", Est: synth(100, 20, 0)},
		{Name: "light", Est: synth(4, 2, 0)},
		{Name: "strict", Est: synth(90, 25, 0), Limit: 1.05},
	}
	opts := Options{Servers: 2}

	alone, err := ScoreMachine(tenants, opts, 0, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(alone.Allocations) != 1 {
		t.Fatalf("dedicated run scored %d slots, want 1", len(alone.Allocations))
	}
	if !WithinLimits(alone, tenants, []int{2}) {
		t.Error("dedicated machine violates the tenant's own limit")
	}

	shared, err := ScoreMachine(tenants, opts, 1, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(shared.Allocations) != 2 {
		t.Fatalf("shared run scored %d slots, want 2", len(shared.Allocations))
	}
	if shared.TotalCost <= alone.TotalCost {
		t.Errorf("sharing with a heavy tenant cost %v, want more than dedicated %v",
			shared.TotalCost, alone.TotalCost)
	}
	if WithinLimits(shared, tenants, []int{0, 2}) {
		t.Error("limit 1.05 tenant squeezed by a heavy neighbour still reported within limits")
	}

	for _, bad := range []struct {
		name    string
		server  int
		members []int
	}{
		{"no members", 0, nil},
		{"bad server", 9, []int{0}},
		{"bad member", 0, []int{5}},
	} {
		if _, err := ScoreMachine(tenants, opts, bad.server, bad.members); err == nil {
			t.Errorf("%s: no error", bad.name)
		}
	}
}
