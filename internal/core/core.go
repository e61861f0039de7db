// Package core implements the virtualization design advisor's decision
// layer (§4): the configuration enumerator (the greedy search of Fig. 11,
// with degradation limits L_i and benefit gain factors G_i), the cost
// estimation interface it searches over, an optimizer-backed what-if
// estimator with memoization, and an exhaustive-search oracle used to
// validate the greedy results (§4.5 reports greedy is "always within 5% of
// the optimal").
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/memo"
)

// Allocation is the paper's R_i = [r_i1, ..., r_iM]: one share in [0,1]
// per resource. Index 0 is CPU and index 1 is memory throughout this
// repository (M = 2, as in the paper's evaluation).
type Allocation []float64

// Clone copies the allocation.
func (a Allocation) Clone() Allocation { return append(Allocation(nil), a...) }

// Resource indexes into Allocation.
const (
	ResCPU = 0
	ResMem = 1
)

// Estimator estimates one workload's cost (in seconds) under a candidate
// allocation. PlanSig identifies the query-plan shape the estimate is
// based on; online refinement uses changes in PlanSig across memory levels
// to delimit its piecewise-linear intervals (§5.1).
type Estimator interface {
	Estimate(a Allocation) (seconds float64, planSig string, err error)
}

// EstimatorFunc adapts a function to the Estimator interface.
type EstimatorFunc func(a Allocation) (float64, string, error)

// Estimate implements Estimator.
func (f EstimatorFunc) Estimate(a Allocation) (float64, string, error) { return f(a) }

// Options configures the greedy enumerator.
type Options struct {
	// Resources is M, the number of resources being allocated (default 2,
	// at most 2: CPU and memory, as in the paper's evaluation).
	Resources int
	// Delta is the share shifted per iteration (Fig. 11's δ; default 5%).
	Delta float64
	// MinShare is the floor each workload keeps of every resource
	// (default Delta: a VM cannot run on a zero allocation).
	MinShare float64
	// MaxIters bounds greedy iterations (default 400; §7.2 reports
	// convergence within 8).
	MaxIters int
	// Gains are the benefit gain factors G_i (default all 1).
	Gains []float64
	// Limits are the degradation limits L_i relative to a dedicated
	// machine (default all +Inf).
	Limits []float64
	// Parallelism bounds how many estimator evaluations run concurrently
	// (default 1: fully sequential). The search result is bit-identical
	// across Parallelism settings — only wall-clock time and the order of
	// estimator invocations change — because candidate selection always
	// replays in the sequential order over the costed grid. Estimators
	// must be safe for concurrent use when Parallelism > 1; the
	// repository's what-if estimators are.
	Parallelism int
	// Ctx cancels a long-running search between evaluation batches; nil
	// means context.Background().
	Ctx context.Context
}

// Normalize returns the options as the enumerators will actually run
// them for n workloads: defaults filled (Resources, Delta, MinShare,
// MaxIters, unit Gains, +Inf Limits), Resources bounded by 2 and QoS
// vectors validated. It is the single source of truth for defaulting —
// any layer that needs to compare or key option sets (the machine-score
// cache) must normalize through here rather than re-deriving the
// constants.
func (o Options) Normalize(n int) (Options, error) {
	return o.withDefaults(n)
}

func (o Options) withDefaults(n int) (Options, error) {
	if n == 0 {
		return o, errors.New("core: no workloads")
	}
	if o.Resources <= 0 {
		o.Resources = 2
	}
	if o.Resources > 2 {
		return o, fmt.Errorf("core: %d resources; the advisor allocates CPU and memory (M ≤ 2)", o.Resources)
	}
	if o.Delta <= 0 {
		o.Delta = 0.05
	}
	if o.MinShare <= 0 {
		o.MinShare = o.Delta
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 400
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.Gains == nil {
		o.Gains = make([]float64, n)
		for i := range o.Gains {
			o.Gains[i] = 1
		}
	}
	if o.Limits == nil {
		o.Limits = make([]float64, n)
		for i := range o.Limits {
			o.Limits[i] = math.Inf(1)
		}
	}
	if len(o.Gains) != n || len(o.Limits) != n {
		return o, fmt.Errorf("core: gains/limits must have %d entries", n)
	}
	if float64(n)*o.MinShare > 1+1e-9 {
		return o, fmt.Errorf("core: %d workloads cannot each hold %.0f%%", n, o.MinShare*100)
	}
	for i, g := range o.Gains {
		if g < 1 {
			return o, fmt.Errorf("core: gain G_%d = %v < 1", i, g)
		}
	}
	for i, l := range o.Limits {
		if l < 1 {
			return o, fmt.Errorf("core: degradation limit L_%d = %v < 1", i, l)
		}
	}
	return o, nil
}

// Sample is one estimator evaluation recorded during enumeration; the
// refinement layer fits its initial cost models to these (§5: "we obtain
// the linear cost equation by running a linear regression on multiple
// points ... that we obtain during the configuration enumeration phase").
type Sample struct {
	Alloc   Allocation
	Seconds float64
	PlanSig string
}

// Result is a finished recommendation.
type Result struct {
	// Allocations are the recommended R_i.
	Allocations []Allocation
	// Costs are the estimated per-workload costs (seconds) at the
	// recommendation; TotalCost is the gain-weighted objective value.
	Costs     []float64
	TotalCost float64
	// DedicatedCosts are Cost(W_i, [1,...,1]) — the denominators of the
	// degradation constraint.
	DedicatedCosts []float64
	// Iterations is how many δ-moves greedy made before converging.
	Iterations int
	// EstimatorCalls counts cache-missing estimator evaluations;
	// CacheHits counts evaluations served from the memo (the §4.5 cost
	// cache ablation reports both).
	EstimatorCalls int
	CacheHits      int
	// DominancePruned counts candidates skipped through dominance
	// pruning: cross-product candidates for the exhaustive oracle,
	// never-selectable up-candidates for greedy runs (dominance.go). It
	// is 0 whenever a workload's observed cost surface is not monotone
	// in every resource — pruning never assumes monotonicity. Pruning
	// changes evaluation counters only, never a recommendation.
	DominancePruned int
	// Samples holds every distinct evaluation per workload.
	Samples [][]Sample
}

// Degradations returns Cost_i / DedicatedCost_i for each workload.
func (r *Result) Degradations() []float64 {
	out := make([]float64, len(r.Costs))
	for i := range r.Costs {
		if r.DedicatedCosts[i] > 0 {
			out[i] = r.Costs[i] / r.DedicatedCosts[i]
		}
	}
	return out
}

// searcher wraps the estimators with a per-run memo, one table per
// workload: concurrent lookups of the same quantized allocation block on
// the single in-flight evaluation instead of duplicating it, so
// EstimatorCalls/CacheHits stay identical to a sequential search. When
// the search runs with Parallelism > 1, estimators implementing
// ConcurrentEstimator additionally fan the per-statement costing of a
// cache-missing evaluation across a caller-chosen worker bound: the
// sequential stretches of a search (dedicated costs, the initial
// allocation) pass the full stmtWorkers budget, while parallel candidate
// batches pass their batchShare so nesting divides the pool instead of
// multiplying it.
type searcher struct {
	ests        []Estimator
	memos       []memo.Table[AllocKey, Sample] // [workload]
	calls       atomic.Int64
	hits        atomic.Int64
	stmtWorkers int
	ctx         context.Context
}

func newSearcher(ests []Estimator, opts Options) *searcher {
	return &searcher{
		ests:        ests,
		memos:       make([]memo.Table[AllocKey, Sample], len(ests)),
		stmtWorkers: opts.Parallelism,
		ctx:         opts.Ctx,
	}
}

// AllocKey is an allocation quantized to 1e-6 shares (the rounding
// avoids float-noise misses): the canonical key for any memo of
// per-allocation evaluations — the searcher's per-run memo and the
// fleet's estimate cache — so no two memos can quantize differently.
// It is a comparable fixed-size value, so a lookup allocates nothing.
// Slots past the allocation's length hold −1, so allocations of
// different lengths never collide.
type AllocKey [2]int32

// KeyOf quantizes a into its AllocKey. Allocations hold at most two
// shares (Options.Normalize rejects Resources > 2), each in [0, 1].
func KeyOf(a Allocation) AllocKey {
	k := AllocKey{-1, -1}
	if len(a) > len(k) {
		panic(fmt.Sprintf("core: %d-resource allocation has no AllocKey", len(a)))
	}
	for j, v := range a {
		k[j] = int32(math.Round(v * 1e6))
	}
	return k
}

// cost evaluates workload i at the allocation through the memo.
// stmtWorkers bounds the statement-level fan-out of a cache-missing
// evaluation: sequential stretches of a search pass the full
// Parallelism budget, parallel candidate batches pass their batchShare.
func (s *searcher) cost(i int, a Allocation, stmtWorkers int) (Sample, error) {
	sm, hit, err := s.memos[i].Get(KeyOf(a), func() (Sample, error) {
		s.calls.Add(1)
		sec, sig, err := EstimateWith(s.ctx, s.ests[i], stmtWorkers, a)
		if err != nil {
			return Sample{}, fmt.Errorf("core: estimating workload %d at %v: %w", i, a, err)
		}
		return Sample{Alloc: a.Clone(), Seconds: sec, PlanSig: sig}, nil
	})
	if hit {
		s.hits.Add(1)
	}
	return sm, err
}

// samples collects every resolved evaluation of workload i, sorted by
// allocation so that Result.Samples — and everything fitted to it, like
// the refinement layer's regression models — does not depend on the
// order in which parallel workers evaluated them. Allocations are unique
// per sample (one memo entry per quantized key), so the order is total.
func (s *searcher) samples(i int) []Sample {
	var out []Sample
	s.memos[i].Walk(func(_ AllocKey, sm Sample) { out = append(out, sm) })
	sort.Slice(out, func(x, y int) bool {
		ax, ay := out[x].Alloc, out[y].Alloc
		for j := range ax {
			if ax[j] != ay[j] {
				return ax[j] < ay[j]
			}
		}
		return false
	})
	return out
}

// Recommend runs the greedy configuration enumeration of Fig. 11.
func Recommend(ests []Estimator, opts Options) (*Result, error) {
	n := len(ests)
	opts, err := opts.withDefaults(n)
	if err != nil {
		return nil, err
	}
	s := newSearcher(ests, opts)

	// Dedicated-machine costs for the degradation constraint.
	dedicated := make([]float64, n)
	full := make(Allocation, opts.Resources)
	for j := range full {
		full[j] = 1
	}
	for i := range ests {
		sm, err := s.cost(i, full, s.stmtWorkers)
		if err != nil {
			return nil, err
		}
		dedicated[i] = sm.Seconds
	}

	// Start with equal shares for all workloads.
	allocs := make([]Allocation, n)
	costs := make([]float64, n) // G_i-weighted
	for i := range allocs {
		allocs[i] = make(Allocation, opts.Resources)
		for j := range allocs[i] {
			allocs[i][j] = 1 / float64(n)
		}
		sm, err := s.cost(i, allocs[i], s.stmtWorkers)
		if err != nil {
			return nil, err
		}
		costs[i] = opts.Gains[i] * sm.Seconds
	}

	adjusted := func(i, j int, delta float64) (Allocation, error) {
		a := allocs[i].Clone()
		a[j] += delta
		if a[j] < 0 || a[j] > 1+1e-9 {
			return nil, errInfeasible
		}
		return a, nil
	}

	// Feasibility repair: the initial equal-share allocation may already
	// violate a degradation limit (with five identical workloads, equal
	// shares degrade each by ~5×, yet Fig. 19 shows the advisor meeting
	// L_9 = 2.5). Fig. 11 itself only guards reductions, so before the
	// cost-minimizing loop we move shares toward violating workloads,
	// taking from the donors that suffer least, until limits hold or no
	// repairing move remains (the paper observes L_9 = 1.5 is unmeetable).
	if err := repairLimits(s, allocs, costs, dedicated, opts, adjusted); err != nil {
		return nil, err
	}

	// candidate is one costed δ-shift: workload i gains (up) or donates
	// resource j. The sample pointer is nil while uncosted.
	type candidate struct {
		i, j int
		up   bool
		a    Allocation
		sm   Sample
	}

	// Dominance pruning over the candidate batches (see dominance.go):
	// an up-candidate for a workload already at its dedicated-machine
	// cost floor can never pass Phase 2's strictly-positive gain test
	// when the workload's observed cost surface is monotone, so it is
	// skipped before any estimator work.
	mono := newMonoCheck(s, n)
	pruned := 0

	iters := 0
	for ; iters < opts.MaxIters; iters++ {
		if err := opts.Ctx.Err(); err != nil {
			return nil, err
		}
		// Phase 1: enumerate every feasible ±δ candidate in the sequential
		// order and cost them all over the worker pool. The memo cache
		// deduplicates across iterations, so the set of estimator calls is
		// exactly the sequential set regardless of Parallelism.
		var cands []candidate
		for j := 0; j < opts.Resources; j++ {
			for i := 0; i < n; i++ {
				if up, err := adjusted(i, j, opts.Delta); err == nil {
					if !disableGreedyDominance && n >= 2 &&
						costs[i] <= opts.Gains[i]*dedicated[i] && mono.monotone(i) {
						pruned++
					} else {
						cands = append(cands, candidate{i: i, j: j, up: true, a: up})
					}
				}
				if allocs[i][j]-opts.Delta < opts.MinShare-1e-9 {
					continue
				}
				if down, err := adjusted(i, j, -opts.Delta); err == nil {
					cands = append(cands, candidate{i: i, j: j, up: false, a: down})
				}
			}
		}
		candShare := BatchShare(opts.Parallelism, len(cands))
		if err := forEach(opts.Ctx, opts.Parallelism, len(cands), func(c int) error {
			sm, err := s.cost(cands[c].i, cands[c].a, candShare)
			if err != nil {
				return err
			}
			cands[c].sm = sm
			return nil
		}); err != nil {
			return nil, err
		}
		// Phase 2: replay the sequential selection over the costed grid —
		// identical tie-breaking, so the result is bit-identical to a
		// Parallelism=1 run.
		maxDiff := 0.0
		var bestGainI, bestLoseI, bestJ int
		var bestGainCost, bestLoseCost float64
		found := false
		c := 0
		for j := 0; j < opts.Resources; j++ {
			maxGain := 0.0
			minLoss := math.Inf(1)
			iGain, iLose := -1, -1
			var gainCost, loseCost float64
			for i := 0; i < n; i++ {
				// Who benefits most from an increase?
				if c < len(cands) && cands[c].i == i && cands[c].j == j && cands[c].up {
					sm := cands[c].sm
					c++
					cost := opts.Gains[i] * sm.Seconds
					if gain := costs[i] - cost; gain > maxGain {
						maxGain, iGain, gainCost = gain, i, cost
					}
				}
				// Who suffers least from a reduction?
				if c < len(cands) && cands[c].i == i && cands[c].j == j && !cands[c].up {
					sm := cands[c].sm
					c++
					// Degradation limit: only take resources from workloads
					// that stay within L_i afterwards (Fig. 11).
					if dedicated[i] > 0 && sm.Seconds/dedicated[i] > opts.Limits[i]+1e-12 {
						continue
					}
					cost := opts.Gains[i] * sm.Seconds
					if loss := cost - costs[i]; loss < minLoss {
						minLoss, iLose, loseCost = loss, i, cost
					}
				}
			}
			if iGain >= 0 && iLose >= 0 && iGain != iLose && maxGain-minLoss > maxDiff {
				maxDiff = maxGain - minLoss
				bestGainI, bestLoseI, bestJ = iGain, iLose, j
				bestGainCost, bestLoseCost = gainCost, loseCost
				found = true
			}
		}
		if !found || maxDiff <= 0 {
			break
		}
		allocs[bestGainI][bestJ] += opts.Delta
		allocs[bestLoseI][bestJ] -= opts.Delta
		costs[bestGainI] = bestGainCost
		costs[bestLoseI] = bestLoseCost
	}

	// Snapshot the cache statistics before the final per-workload costing
	// pass: its lookups are guaranteed memo hits and the §4.5 cache
	// ablation counts only the search itself.
	res := &Result{
		Allocations:     allocs,
		Costs:           make([]float64, n),
		DedicatedCosts:  dedicated,
		Iterations:      iters,
		EstimatorCalls:  int(s.calls.Load()),
		CacheHits:       int(s.hits.Load()),
		DominancePruned: pruned,
		Samples:         make([][]Sample, n),
	}
	for i := range allocs {
		sm, err := s.cost(i, allocs[i], 1) // guaranteed memo hits
		if err != nil {
			return nil, err
		}
		res.Costs[i] = sm.Seconds
		res.TotalCost += opts.Gains[i] * sm.Seconds
		res.Samples[i] = s.samples(i)
	}
	return res, nil
}

var errInfeasible = errors.New("core: infeasible share")
