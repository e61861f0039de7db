package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthEstimator is an analytic workload cost: alpha/cpu + gamma/mem + beta
// — the paper's linear-in-inverse-allocation model, ideal for validating
// the enumerator because optima are computable.
func synthEstimator(alpha, gamma, beta float64) Estimator {
	return EstimatorFunc(func(a Allocation) (float64, string, error) {
		cpu := a[ResCPU]
		mem := 1.0
		if len(a) > 1 {
			mem = a[ResMem]
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

func sumShares(t *testing.T, allocs []Allocation, j int) float64 {
	t.Helper()
	var s float64
	for _, a := range allocs {
		s += a[j]
	}
	return s
}

func TestRecommendFavorsCPUHungryWorkload(t *testing.T) {
	// Workload 0 is CPU-hungry; workload 1 barely cares.
	ests := []Estimator{
		synthEstimator(100, 1, 0),
		synthEstimator(5, 1, 0),
	}
	res, err := Recommend(ests, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocations[0][ResCPU] <= res.Allocations[1][ResCPU] {
		t.Fatalf("CPU-hungry workload should get more CPU: %v", res.Allocations)
	}
	if math.Abs(sumShares(t, res.Allocations, ResCPU)-1) > 1e-9 {
		t.Fatalf("CPU shares must sum to 1: %v", res.Allocations)
	}
	if math.Abs(sumShares(t, res.Allocations, ResMem)-1) > 1e-9 {
		t.Fatalf("memory shares must sum to 1: %v", res.Allocations)
	}
}

func TestRecommendSymmetricWorkloadsSplitEvenly(t *testing.T) {
	ests := []Estimator{
		synthEstimator(10, 10, 1),
		synthEstimator(10, 10, 1),
	}
	res, err := Recommend(ests, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Allocations {
		if math.Abs(a[ResCPU]-0.5) > 1e-9 || math.Abs(a[ResMem]-0.5) > 1e-9 {
			t.Fatalf("identical workloads should split 50/50: %v", res.Allocations)
		}
	}
	if res.Iterations != 0 {
		t.Fatalf("no beneficial move should exist: %d iterations", res.Iterations)
	}
}

func TestRecommendRespectsDegradationLimit(t *testing.T) {
	// Without limits, workload 1 would be starved by the much hungrier
	// workload 0. A tight L_1 must protect it.
	ests := []Estimator{
		synthEstimator(100, 50, 0),
		synthEstimator(10, 5, 0),
	}
	limited, err := Recommend(ests, Options{Limits: []float64{math.Inf(1), 1.8}})
	if err != nil {
		t.Fatal(err)
	}
	deg := limited.Degradations()
	if deg[1] > 1.8+1e-9 {
		t.Fatalf("degradation limit violated: %v", deg)
	}
	free, err := Recommend(ests, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if free.Degradations()[1] <= 1.8 {
		t.Skip("unconstrained run did not degrade workload 1 enough for the limit to bind")
	}
}

func TestRecommendGainFactorShiftsResources(t *testing.T) {
	ests := []Estimator{
		synthEstimator(20, 10, 0),
		synthEstimator(20, 10, 0),
		synthEstimator(20, 10, 0),
	}
	res, err := Recommend(ests, Options{Gains: []float64{6, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocations[0][ResCPU] <= res.Allocations[1][ResCPU] {
		t.Fatalf("gained workload should win resources: %v", res.Allocations)
	}
}

func TestRecommendSingleResourceMode(t *testing.T) {
	ests := []Estimator{
		synthEstimator(50, 0, 0),
		synthEstimator(10, 0, 0),
	}
	res, err := Recommend(ests, Options{Resources: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Allocations[0]) != 1 {
		t.Fatalf("allocation arity: %v", res.Allocations)
	}
	if res.Allocations[0][0] <= res.Allocations[1][0] {
		t.Fatalf("hungry workload should get more: %v", res.Allocations)
	}
}

func TestRecommendCacheEffective(t *testing.T) {
	ests := []Estimator{
		synthEstimator(30, 10, 0),
		synthEstimator(10, 30, 0),
	}
	res, err := Recommend(ests, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Fatal("the enumerator should reuse cached costs across iterations")
	}
}

func TestRecommendOptionValidation(t *testing.T) {
	ests := []Estimator{synthEstimator(1, 1, 0)}
	if _, err := Recommend(nil, Options{}); err == nil {
		t.Fatal("no workloads should error")
	}
	if _, err := Recommend(ests, Options{Gains: []float64{0.5}}); err == nil {
		t.Fatal("gain < 1 should error")
	}
	if _, err := Recommend(ests, Options{Limits: []float64{0.5}}); err == nil {
		t.Fatal("limit < 1 should error")
	}
	if _, err := Recommend(ests, Options{Gains: []float64{1, 1}}); err == nil {
		t.Fatal("mismatched gains length should error")
	}
	many := []Estimator{synthEstimator(1, 1, 0), synthEstimator(1, 1, 0), synthEstimator(1, 1, 0)}
	if _, err := Recommend(many, Options{MinShare: 0.5}); err == nil {
		t.Fatal("infeasible MinShare should error")
	}
	if _, err := Recommend(ests, Options{Resources: 3}); err == nil {
		t.Fatal("more than two resources should error")
	}
	if _, err := Exhaustive(ests, Options{Resources: 3}); err == nil {
		t.Fatal("more than two resources should error in the exhaustive oracle too")
	}
}

// KeyOf rounds float noise away and keeps allocations of different
// lengths apart.
func TestKeyOfQuantizes(t *testing.T) {
	if KeyOf(Allocation{0.1 + 0.2, 0.7}) != KeyOf(Allocation{0.3, 0.7}) {
		t.Fatal("float noise below 1e-6 must not change the key")
	}
	if KeyOf(Allocation{0.3, 0.7}) == KeyOf(Allocation{0.300001, 0.7}) {
		t.Fatal("shares 1e-6 apart must key apart")
	}
	if KeyOf(Allocation{0.5}) == KeyOf(Allocation{0.5, 0}) || KeyOf(nil) == KeyOf(Allocation{0}) {
		t.Fatal("allocations of different lengths must key apart")
	}
	if got := KeyOf(Allocation{1, 0.05}); got != (AllocKey{1000000, 50000}) {
		t.Fatalf("KeyOf([1 0.05]) = %v", got)
	}
}

// §4.5's headline claim: greedy is very often optimal and always close.
// Compare against exhaustive search over the same δ-grid on randomized
// two-workload scenarios.
func TestGreedyWithinFivePercentOfExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		ests := []Estimator{
			synthEstimator(rng.Float64()*100+1, rng.Float64()*50, rng.Float64()*10),
			synthEstimator(rng.Float64()*100+1, rng.Float64()*50, rng.Float64()*10),
		}
		opts := Options{Delta: 0.05}
		g, err := Recommend(ests, opts)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Exhaustive(ests, opts)
		if err != nil {
			t.Fatal(err)
		}
		if g.TotalCost > e.TotalCost*1.05+1e-9 {
			t.Fatalf("trial %d: greedy %.4f vs optimal %.4f (>5%% off); allocs %v vs %v",
				trial, g.TotalCost, e.TotalCost, g.Allocations, e.Allocations)
		}
	}
}

func TestExhaustiveRespectsLimits(t *testing.T) {
	ests := []Estimator{
		synthEstimator(100, 50, 0),
		synthEstimator(10, 5, 0),
	}
	res, err := Exhaustive(ests, Options{Limits: []float64{math.Inf(1), 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Degradations()[1]; d > 1.5+1e-9 {
		t.Fatalf("exhaustive violated limit: %v", d)
	}
}

// Property: for any mix of inverse-linear workloads, greedy never
// allocates shares outside [MinShare, 1], shares always sum to 1 per
// resource, and total cost never exceeds the equal-split cost.
func TestPropertyGreedyInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%4) + 2 // 2..5 workloads
		rng := rand.New(rand.NewSource(seed))
		ests := make([]Estimator, n)
		equalCost := 0.0
		for i := range ests {
			alpha := rng.Float64()*80 + 1
			gamma := rng.Float64() * 40
			beta := rng.Float64() * 5
			ests[i] = synthEstimator(alpha, gamma, beta)
			en := float64(n)
			equalCost += alpha*en + gamma*en + beta
		}
		opts := Options{Delta: 0.05}
		res, err := Recommend(ests, opts)
		if err != nil {
			return false
		}
		for j := 0; j < 2; j++ {
			var sum float64
			for _, a := range res.Allocations {
				if a[j] < opts.Delta-1e-9 || a[j] > 1+1e-9 {
					return false
				}
				sum += a[j]
			}
			if math.Abs(sum-1) > 1e-6 {
				return false
			}
		}
		return res.TotalCost <= equalCost+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplesCollected(t *testing.T) {
	ests := []Estimator{
		synthEstimator(30, 10, 0),
		synthEstimator(10, 30, 0),
	}
	res, err := Recommend(ests, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, ss := range res.Samples {
		if len(ss) < 3 {
			t.Fatalf("workload %d: expected several samples, got %d", i, len(ss))
		}
	}
}
