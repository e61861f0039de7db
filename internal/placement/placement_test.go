package placement

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
)

// synth is the analytic inverse-linear workload cost used across the
// repository's enumerator tests: alpha/cpu + gamma/mem + beta.
func synth(alpha, gamma, beta float64) core.Estimator {
	return core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
		cpu, mem := a[0], 1.0
		if len(a) > 1 {
			mem = a[1]
		}
		if cpu <= 0 {
			cpu = 1e-3
		}
		if mem <= 0 {
			mem = 1e-3
		}
		return alpha/cpu + gamma/mem + beta, "plan", nil
	})
}

func TestPlaceSeparatesHeavyTenants(t *testing.T) {
	// Two CPU-hungry tenants and two light ones on two machines: each
	// heavy tenant should claim its own machine rather than share one.
	tenants := []Tenant{
		{Name: "heavy0", Est: synth(100, 20, 0)},
		{Name: "light0", Est: synth(4, 2, 0)},
		{Name: "heavy1", Est: synth(90, 25, 0)},
		{Name: "light1", Est: synth(5, 1, 0)},
	}
	p, err := Place(tenants, Options{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Assignment[0] == p.Assignment[2] {
		t.Fatalf("heavy tenants share server %d: %v", p.Assignment[0], p.Assignment)
	}
	// Every machine's recommendation must allocate exactly its own
	// resources.
	for s, m := range p.Machines {
		if m.Result == nil {
			continue
		}
		for j := 0; j < 2; j++ {
			sum := 0.0
			for _, a := range m.Result.Allocations {
				sum += a[j]
			}
			if sum < 0.99 || sum > 1.01 {
				t.Fatalf("server %d resource %d allocates %.3f of the machine", s, j, sum)
			}
		}
	}
	// Accessors agree with the underlying machine plans.
	for i := range tenants {
		a := p.AllocationOf(i)
		if len(a) != 2 || a[0] <= 0 || a[1] <= 0 {
			t.Fatalf("tenant %d allocation %v", i, a)
		}
		sec, deg := p.CostOf(i)
		if sec <= 0 || deg < 1 {
			t.Fatalf("tenant %d cost %v degradation %v", i, sec, deg)
		}
	}
}

func TestPlaceBeatsSingleMachine(t *testing.T) {
	// Four competing tenants on two machines must cost no more than the
	// same four squeezed onto one.
	var tenants []Tenant
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		tenants = append(tenants, Tenant{
			Name: fmt.Sprintf("t%d", i),
			Est:  synth(rng.Float64()*80+10, rng.Float64()*30, rng.Float64()*5),
		})
	}
	one, err := Place(tenants, Options{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Place(tenants, Options{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if two.TotalCost > one.TotalCost {
		t.Fatalf("more machines cost more: %v on 2 vs %v on 1", two.TotalCost, one.TotalCost)
	}
}

// Placement must be bit-identical across Parallelism settings:
// assignments, allocations, and costs.
func TestPlaceParallelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 6; trial++ {
		n := 4 + trial%3
		var tenants []Tenant
		for i := 0; i < n; i++ {
			tn := Tenant{
				Name: fmt.Sprintf("t%d", i),
				Est:  synth(rng.Float64()*90+5, rng.Float64()*40, rng.Float64()*10),
			}
			if i%3 == 1 {
				tn.Limit = 3
			}
			if i%3 == 2 {
				tn.Gain = 2
			}
			tenants = append(tenants, tn)
		}
		seq, err := Place(tenants, Options{Servers: 2, Core: core.Options{Parallelism: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 8} {
			par, err := Place(tenants, Options{Servers: 2, Core: core.Options{Parallelism: p}})
			if err != nil {
				t.Fatal(err)
			}
			if par.TotalCost != seq.TotalCost {
				t.Fatalf("trial %d p=%d: total %v vs %v", trial, p, par.TotalCost, seq.TotalCost)
			}
			for i := range tenants {
				if par.Assignment[i] != seq.Assignment[i] {
					t.Fatalf("trial %d p=%d: tenant %d on server %d vs %d",
						trial, p, i, par.Assignment[i], seq.Assignment[i])
				}
				as, ap := seq.AllocationOf(i), par.AllocationOf(i)
				for j := range as {
					if as[j] != ap[j] {
						t.Fatalf("trial %d p=%d tenant %d: allocations diverge: %v vs %v",
							trial, p, i, ap, as)
					}
				}
			}
		}
	}
}

// A limit-feasible machine must beat a cheaper machine where the limit
// is unsatisfiable. Construction: a hog claims one server; three
// constant-cost tenants fill the other to 3 of its 4 MinShare slots. The
// limited tenant placed last fits within L=1.4 next to the hog (it can
// take a 75% CPU share, the hog's MinShare floor) but not on the crowded
// machine (capped at 25% → ~4× degradation), while raw cost-delta favors
// the crowded machine because squeezing the hog down to its floor is far
// more expensive than packing one more flat-cost tenant.
func TestPlacePrefersLimitFeasibleMachine(t *testing.T) {
	tenants := []Tenant{
		{Name: "hog", Est: synth(100, 0.1, 0)},
		{Name: "flat0", Est: synth(1, 0.1, 60)},
		{Name: "flat1", Est: synth(1, 0.1, 60)},
		{Name: "flat2", Est: synth(1, 0.1, 60)},
		{Name: "limited", Est: synth(50, 0.1, 0), Limit: 1.4},
	}
	p, err := Place(tenants, Options{Servers: 2, Core: core.Options{Delta: 0.05, MinShare: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Assignment[4] != p.Assignment[0] {
		t.Fatalf("limited tenant must co-locate with the hog (the only feasible machine): %v", p.Assignment)
	}
	if _, deg := p.CostOf(4); deg > 1.4+1e-9 {
		t.Fatalf("limited tenant degraded %vx past its limit", deg)
	}
}

// The cross-run memo must keep each distinct (tenant, allocation)
// evaluation to exactly one true estimator invocation per Place call,
// even though candidate scorings re-run the advisor over overlapping
// tenant sets.
func TestPlaceDedupsAcrossCandidateRuns(t *testing.T) {
	type record struct {
		mu    sync.Mutex
		calls int
		seen  map[string]bool
	}
	recs := make([]*record, 4)
	tenants := make([]Tenant, 4)
	for i := range tenants {
		r := &record{seen: map[string]bool{}}
		recs[i] = r
		inner := synth(float64(20+10*i), 5, 1)
		tenants[i] = Tenant{
			Name: fmt.Sprintf("t%d", i),
			Est: core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
				r.mu.Lock()
				r.calls++
				r.seen[fmt.Sprintf("%.6f|%.6f", a[0], a[1])] = true
				r.mu.Unlock()
				return inner.Estimate(a)
			}),
		}
	}
	if _, err := Place(tenants, Options{Servers: 2}); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.calls != len(r.seen) {
			t.Fatalf("tenant %d: %d invocations for %d distinct allocations — cross-run memo failed",
				i, r.calls, len(r.seen))
		}
	}
}

func TestPlaceRespectsQoSLimit(t *testing.T) {
	// Three identical tenants, one with a tight degradation limit, two
	// machines: the limited tenant must end within its limit.
	tenants := []Tenant{
		{Name: "a", Est: synth(50, 10, 0), Limit: 1.5},
		{Name: "b", Est: synth(50, 10, 0)},
		{Name: "c", Est: synth(50, 10, 0)},
	}
	p, err := Place(tenants, Options{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, deg := p.CostOf(0); deg > 1.5+1e-9 {
		t.Fatalf("limited tenant degraded %vx > 1.5x", deg)
	}
}

func TestPlaceValidation(t *testing.T) {
	if _, err := Place(nil, Options{Servers: 1}); err == nil {
		t.Fatal("no tenants should error")
	}
	tn := []Tenant{{Name: "a", Est: synth(10, 5, 0)}}
	if _, err := Place(tn, Options{Servers: 0}); err == nil {
		t.Fatal("zero servers should error")
	}
	if _, err := Place(tn, Options{Servers: 1, Core: core.Options{Resources: 3}}); err == nil {
		t.Fatal("three resources should error")
	}
	// MinShare 0.5 → 2 slots per machine; 3 tenants on 1 machine cannot fit.
	many := []Tenant{
		{Name: "a", Est: synth(10, 5, 0)},
		{Name: "b", Est: synth(10, 5, 0)},
		{Name: "c", Est: synth(10, 5, 0)},
	}
	if _, err := Place(many, Options{Servers: 1, Core: core.Options{MinShare: 0.5, Delta: 0.25}}); err == nil {
		t.Fatal("over-capacity placement should error")
	}
}

// Satellite coverage: accessors must be defensive on indexes that name
// no placed tenant, and a single tenant on a single machine is the
// trivial placement (whole machine, degradation 1).
func TestPlacementAccessorEdgeCases(t *testing.T) {
	p, err := Place([]Tenant{{Name: "only", Est: synth(10, 5, 0)}}, Options{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Assignment[0]; got != 0 {
		t.Fatalf("single tenant on server %d", got)
	}
	a := p.AllocationOf(0)
	if len(a) != 2 || a[0] < 0.99 || a[1] < 0.99 {
		t.Fatalf("single tenant should hold the whole machine, got %v", a)
	}
	sec, deg := p.CostOf(0)
	if sec <= 0 || deg < 1-1e-9 || deg > 1+1e-9 {
		t.Fatalf("single tenant cost %v degradation %v, want degradation 1", sec, deg)
	}
	// Unknown tenant indexes: nil / zeros, never a panic.
	for _, bad := range []int{-1, 1, 99} {
		if got := p.AllocationOf(bad); got != nil {
			t.Fatalf("AllocationOf(%d) = %v, want nil", bad, got)
		}
		if sec, deg := p.CostOf(bad); sec != 0 || deg != 0 {
			t.Fatalf("CostOf(%d) = (%v, %v), want zeros", bad, sec, deg)
		}
	}
	// A hand-built placement with an empty machine must not panic either.
	empty := &Placement{Assignment: []int{0}, Machines: []Machine{{}}}
	if got := empty.AllocationOf(0); got != nil {
		t.Fatalf("AllocationOf on resultless machine = %v, want nil", got)
	}
	if sec, deg := empty.CostOf(0); sec != 0 || deg != 0 {
		t.Fatalf("CostOf on resultless machine = (%v, %v), want zeros", sec, deg)
	}
}

func TestPlaceCapacityExceeded(t *testing.T) {
	// 5 tenants, 2 servers × 2 slots (MinShare 0.5): infeasible, and the
	// error must name the shape rather than panic mid-pack.
	var tenants []Tenant
	for i := 0; i < 5; i++ {
		tenants = append(tenants, Tenant{Name: fmt.Sprintf("t%d", i), Est: synth(10, 5, 0)})
	}
	_, err := Place(tenants, Options{Servers: 2, Core: core.Options{MinShare: 0.5, Delta: 0.25}})
	if err == nil {
		t.Fatal("5 tenants on 2×2 slots should error")
	}
}

// profiledSynth builds an EstFor hook where the profile key scales the
// tenant's whole cost: "slow" machines price every allocation higher.
func profiledSynth(alpha, gamma, beta float64, factors map[string]float64) func(string) core.Estimator {
	return func(profile string) core.Estimator {
		f := factors[profile]
		if f == 0 {
			f = 1
		}
		base := synth(alpha*f, gamma*f, beta*f)
		return base
	}
}

// Heterogeneous fleets: a tenant must land on the fast machine when the
// slow profile prices it higher, and degradation limits are relative to
// a dedicated machine of the landing profile.
func TestPlaceHeterogeneousPrefersFastMachine(t *testing.T) {
	factors := map[string]float64{"fast": 1, "slow": 3}
	tenants := []Tenant{
		{Name: "a", EstFor: profiledSynth(50, 20, 0, factors)},
		{Name: "b", EstFor: profiledSynth(40, 15, 0, factors)},
	}
	p, err := Place(tenants, Options{Profiles: []string{"slow", "fast"}})
	if err != nil {
		t.Fatal(err)
	}
	// Two machines, two tenants: the heavier tenant is placed first and
	// must claim the fast machine (its empty-machine score is 3× lower).
	if p.Assignment[0] != 1 {
		t.Fatalf("tenant a should land on the fast machine: %v", p.Assignment)
	}
	// Degradation is vs a dedicated machine of the same profile, so a
	// tenant alone on the slow machine still reports degradation 1.
	if _, deg := p.CostOf(1); deg < 1-1e-9 || deg > 1+1e-9 {
		t.Fatalf("lone tenant on slow machine degraded %vx, want 1", deg)
	}
}

// Empty-machine pruning must be per profile: with one slow and two fast
// empty machines, both a slow and a fast candidate are scored (the old
// identical-fleet rule would have scored only the first empty machine).
func TestPlaceHeterogeneousScoresEachProfile(t *testing.T) {
	factors := map[string]float64{"fast": 1, "slow": 5}
	tenants := []Tenant{
		{Name: "a", EstFor: profiledSynth(60, 10, 0, factors)},
	}
	// Server order puts the slow machine first; placement must still find
	// the cheaper fast profile behind it.
	p, err := Place(tenants, Options{Profiles: []string{"slow", "fast", "fast"}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Assignment[0] != 1 {
		t.Fatalf("tenant should land on the first fast machine: %v", p.Assignment)
	}
}

// EstFor falling back to Est (nil hook or nil return) keeps heterogeneous
// fleets usable with profile-agnostic estimators, and a tenant without
// any estimator is a validation error, not a panic.
func TestPlaceEstimatorResolution(t *testing.T) {
	tenants := []Tenant{
		{Name: "agnostic", Est: synth(30, 10, 0)},
		{Name: "partial", Est: synth(20, 5, 0), EstFor: func(profile string) core.Estimator {
			return nil // always fall back
		}},
	}
	if _, err := Place(tenants, Options{Profiles: []string{"x", "y"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Place([]Tenant{{Name: "none"}}, Options{Servers: 1}); err == nil {
		t.Fatal("tenant without estimator should error")
	}
}

// Pinned tenants stay put while free tenants pack around them; a full
// pin reproduces exactly the pinned assignment and prices it.
func TestPlacePinned(t *testing.T) {
	tenants := []Tenant{
		{Name: "heavy0", Est: synth(100, 20, 0)},
		{Name: "heavy1", Est: synth(90, 25, 0)},
		{Name: "light", Est: synth(5, 1, 0)},
	}
	// Force both heavies onto server 0 — the free search would separate
	// them (see TestPlaceSeparatesHeavyTenants).
	p, err := Place(tenants, Options{Servers: 2, Pinned: []int{0, 0, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Assignment[0] != 0 || p.Assignment[1] != 0 {
		t.Fatalf("pinned tenants moved: %v", p.Assignment)
	}
	free, err := Place(tenants, Options{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if free.Assignment[0] == free.Assignment[1] {
		t.Fatalf("free placement should separate the heavies: %v", free.Assignment)
	}
	if p.TotalCost <= free.TotalCost {
		t.Fatalf("forcing the heavies together must cost more: pinned %v vs free %v",
			p.TotalCost, free.TotalCost)
	}
	// Fully pinned: the enumerator only prices the fixed assignment.
	all, err := Place(tenants, Options{Servers: 2, Pinned: []int{0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if all.Assignment[0] != 0 || all.Assignment[1] != 1 || all.Assignment[2] != 1 {
		t.Fatalf("full pin not honored: %v", all.Assignment)
	}
	if all.TotalCost <= 0 {
		t.Fatal("fully pinned placement must still price the machines")
	}
	// Validation: wrong length, out-of-range server, over-capacity pin.
	if _, err := Place(tenants, Options{Servers: 2, Pinned: []int{0}}); err == nil {
		t.Fatal("short Pinned should error")
	}
	if _, err := Place(tenants, Options{Servers: 2, Pinned: []int{5, -1, -1}}); err == nil {
		t.Fatal("out-of-range pin should error")
	}
	if _, err := Place(tenants, Options{
		Servers: 2,
		Pinned:  []int{0, 0, 0},
		Core:    core.Options{MinShare: 0.5, Delta: 0.25},
	}); err == nil {
		t.Fatal("pinning past capacity should error")
	}
}

// Heterogeneous + pinned placements must stay bit-identical across
// Parallelism settings, like every other enumerator in the repository.
func TestPlaceHeterogeneousParallelParity(t *testing.T) {
	factors := map[string]float64{"big": 1, "small": 2.5}
	var tenants []Tenant
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 5; i++ {
		tn := Tenant{
			Name:   fmt.Sprintf("t%d", i),
			EstFor: profiledSynth(rng.Float64()*90+5, rng.Float64()*40, rng.Float64()*10, factors),
		}
		if i%2 == 1 {
			tn.Limit = 3
		}
		tenants = append(tenants, tn)
	}
	profiles := []string{"big", "small", "big"}
	pinned := []int{-1, 2, -1, 1, -1}
	for _, pin := range [][]int{nil, pinned} {
		seq, err := Place(tenants, Options{Profiles: profiles, Pinned: pin, Core: core.Options{Parallelism: 1}})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Place(tenants, Options{Profiles: profiles, Pinned: pin, Core: core.Options{Parallelism: 8}})
		if err != nil {
			t.Fatal(err)
		}
		if seq.TotalCost != par.TotalCost {
			t.Fatalf("pin=%v: total %v vs %v", pin, seq.TotalCost, par.TotalCost)
		}
		for i := range tenants {
			if seq.Assignment[i] != par.Assignment[i] {
				t.Fatalf("pin=%v tenant %d: server %d vs %d", pin, i, seq.Assignment[i], par.Assignment[i])
			}
			as, ap := seq.AllocationOf(i), par.AllocationOf(i)
			for j := range as {
				if as[j] != ap[j] {
					t.Fatalf("pin=%v tenant %d: allocations diverge: %v vs %v", pin, i, as, ap)
				}
			}
		}
	}
}

func TestPlaceFillsBeforeOverflow(t *testing.T) {
	// More tenants than one machine's slots: the overflow must land on
	// the second machine, and every tenant must be assigned somewhere.
	var tenants []Tenant
	for i := 0; i < 3; i++ {
		tenants = append(tenants, Tenant{Name: fmt.Sprintf("t%d", i), Est: synth(20, 10, 0)})
	}
	p, err := Place(tenants, Options{Servers: 2, Core: core.Options{MinShare: 0.5, Delta: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, s := range p.Assignment {
		counts[s]++
	}
	if counts[0]+counts[1] != 3 || counts[0] > 2 || counts[1] > 2 {
		t.Fatalf("bad distribution: %v", p.Assignment)
	}
}
