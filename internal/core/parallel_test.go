package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// countingEstimator wraps an estimator and counts true invocations
// atomically, so tests can assert the singleflight memo never duplicates
// an in-flight evaluation even under -race with many workers.
type countingEstimator struct {
	inner Estimator
	n     atomic.Int64
	delay time.Duration
}

func (c *countingEstimator) Estimate(a Allocation) (float64, string, error) {
	c.n.Add(1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return c.inner.Estimate(a)
}

// randomScenario builds n seeded inverse-linear workloads.
func randomScenario(rng *rand.Rand, n int) []Estimator {
	ests := make([]Estimator, n)
	for i := range ests {
		ests[i] = synthEstimator(rng.Float64()*90+5, rng.Float64()*40, rng.Float64()*10)
	}
	return ests
}

func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.TotalCost != b.TotalCost {
		t.Fatalf("%s: total cost differs: %v vs %v", label, a.TotalCost, b.TotalCost)
	}
	if len(a.Allocations) != len(b.Allocations) {
		t.Fatalf("%s: allocation count differs", label)
	}
	for i := range a.Allocations {
		for j := range a.Allocations[i] {
			if a.Allocations[i][j] != b.Allocations[i][j] {
				t.Fatalf("%s: allocation [%d][%d] differs: %v vs %v",
					label, i, j, a.Allocations[i], b.Allocations[i])
			}
		}
		if a.Costs[i] != b.Costs[i] {
			t.Fatalf("%s: cost %d differs: %v vs %v", label, i, a.Costs[i], b.Costs[i])
		}
	}
}

// Greedy must return bit-identical allocations, costs, iteration counts,
// and cache statistics at any Parallelism, across seeded multi-tenant
// scenarios with and without QoS settings.
func TestGreedyParallelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		n := 2 + trial%5 // 2..6 tenants
		ests := randomScenario(rng, n)
		opts := Options{Delta: 0.05}
		if trial%3 == 1 {
			opts.Limits = make([]float64, n)
			for i := range opts.Limits {
				opts.Limits[i] = float64(n) * 0.9
			}
		}
		if trial%3 == 2 {
			opts.Gains = make([]float64, n)
			for i := range opts.Gains {
				opts.Gains[i] = 1 + float64(i)
			}
		}
		seqOpts := opts
		seqOpts.Parallelism = 1
		seq, err := Recommend(ests, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 8} {
			parOpts := opts
			parOpts.Parallelism = p
			par, err := Recommend(ests, parOpts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "greedy", seq, par)
			if seq.Iterations != par.Iterations {
				t.Fatalf("iterations differ: %d vs %d", seq.Iterations, par.Iterations)
			}
			if seq.EstimatorCalls != par.EstimatorCalls || seq.CacheHits != par.CacheHits {
				t.Fatalf("cache stats differ at p=%d: calls %d vs %d, hits %d vs %d",
					p, seq.EstimatorCalls, par.EstimatorCalls, seq.CacheHits, par.CacheHits)
			}
		}
	}
}

// Tight degradation limits make the initial equal-share allocation
// infeasible, so the repairLimits pre-search engages; its parallel
// candidate scan must keep repaired allocations, costs, and cache
// statistics bit-identical across Parallelism settings.
func TestRepairLimitsParallelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 3 + trial%4 // 3..6 tenants
		ests := randomScenario(rng, n)
		opts := Options{Delta: 0.05, Limits: make([]float64, n)}
		for i := range opts.Limits {
			// Well under the ~n× degradation of equal shares: every trial
			// starts violated and repair must actually move shares.
			opts.Limits[i] = 1.2 + float64(i)*0.3
		}
		seqOpts := opts
		seqOpts.Parallelism = 1
		seq, err := Recommend(ests, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 8} {
			parOpts := opts
			parOpts.Parallelism = p
			par, err := Recommend(ests, parOpts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "repair", seq, par)
			if seq.EstimatorCalls != par.EstimatorCalls || seq.CacheHits != par.CacheHits {
				t.Fatalf("trial %d p=%d: cache stats differ: calls %d vs %d, hits %d vs %d",
					trial, p, seq.EstimatorCalls, par.EstimatorCalls, seq.CacheHits, par.CacheHits)
			}
		}
	}
}

// The exhaustive oracle must find the identical optimum (allocations and
// total) at any Parallelism; early-abandon may only change how many
// evaluations it took to get there.
func TestExhaustiveParallelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 2 + trial%2 // 2..3 tenants: keeps the grid small
		ests := randomScenario(rng, n)
		opts := Options{Delta: 0.1}
		if trial%2 == 1 {
			opts.Limits = make([]float64, n)
			for i := range opts.Limits {
				opts.Limits[i] = float64(n) * 2
			}
		}
		seqOpts := opts
		seqOpts.Parallelism = 1
		seq, err := Exhaustive(ests, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 8} {
			parOpts := opts
			parOpts.Parallelism = p
			par, err := Exhaustive(ests, parOpts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "exhaustive", seq, par)
		}
	}
}

// A -race exercise of the shared estimator cache: many workers hammer the
// same memo, and the singleflight entries must keep the true invocation
// count at exactly one per distinct allocation.
func TestSharedCacheSingleflightUnderRace(t *testing.T) {
	ce := &countingEstimator{inner: synthEstimator(50, 25, 1), delay: 100 * time.Microsecond}
	ests := []Estimator{ce, ce, ce, ce}
	res, err := Recommend(ests, Options{Delta: 0.05, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := int(ce.n.Load()); got != res.EstimatorCalls {
		t.Fatalf("true invocations %d != reported EstimatorCalls %d (duplicate in-flight evaluations)",
			got, res.EstimatorCalls)
	}
}

// Exhaustive under -race with a shared concurrent cache.
func TestExhaustiveSharedCacheUnderRace(t *testing.T) {
	ce := &countingEstimator{inner: synthEstimator(30, 10, 2)}
	ests := []Estimator{ce, ce, ce}
	res, err := Exhaustive(ests, Options{Delta: 0.1, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := int(ce.n.Load()); got != res.EstimatorCalls {
		t.Fatalf("true invocations %d != reported EstimatorCalls %d", got, res.EstimatorCalls)
	}
}

func TestRecommendHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ests := randomScenario(rand.New(rand.NewSource(3)), 3)
	for _, p := range []int{1, 4} {
		if _, err := Recommend(ests, Options{Parallelism: p, Ctx: ctx}); err == nil {
			t.Fatalf("p=%d: canceled context should abort the search", p)
		}
		if _, err := Exhaustive(ests, Options{Delta: 0.1, Parallelism: p, Ctx: ctx}); err == nil {
			t.Fatalf("p=%d: canceled context should abort the oracle", p)
		}
	}
}

// An estimator error raised while the worker pool costs a candidate
// batch must surface from Recommend at any Parallelism, not be swallowed
// by a worker.
func TestParallelEstimatorBatchPropagatesError(t *testing.T) {
	errBoom := errors.New("injected estimator failure")
	// Equal shares (0.5) and the dedicated machine (1) cost fine; every
	// other CPU share fails, so the first δ-shift candidate batch errs.
	boom := EstimatorFunc(func(a Allocation) (float64, string, error) {
		if a[0] != 0.5 && a[0] != 1 {
			return 0, "", errBoom
		}
		return 1 / a[0], "p", nil
	})
	for _, p := range []int{1, 4} {
		_, err := Recommend([]Estimator{boom, synthEstimator(10, 5, 0)}, Options{Delta: 0.05, Parallelism: p})
		if !errors.Is(err, errBoom) {
			t.Fatalf("p=%d: Recommend returned %v, want the estimator's error", p, err)
		}
	}
}

// Early-abandon must never change the optimum even when limits make large
// parts of the grid infeasible.
func TestExhaustiveEarlyAbandonKeepsOptimum(t *testing.T) {
	ests := []Estimator{
		synthEstimator(100, 50, 0),
		synthEstimator(10, 5, 0),
	}
	opts := Options{Delta: 0.05, Limits: []float64{math.Inf(1), 1.5}}
	seq := opts
	seq.Parallelism = 1
	a, err := Exhaustive(ests, seq)
	if err != nil {
		t.Fatal(err)
	}
	par := opts
	par.Parallelism = 6
	b, err := Exhaustive(ests, par)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "abandon", a, b)
}

// An unsatisfiable MinShare grid must surface errInfeasible, not panic
// (the pre-parallel implementation indexed an empty composition list).
func TestExhaustiveEmptyGridIsInfeasible(t *testing.T) {
	ests := randomScenario(rand.New(rand.NewSource(9)), 3)
	// 3 workloads each needing ≥ 0.33 of 20 δ-units: ceil gives 7+7+7 > 20.
	_, err := Exhaustive(ests, Options{Delta: 0.05, MinShare: 0.33})
	if err == nil {
		t.Fatal("unsatisfiable grid should be infeasible")
	}
}
