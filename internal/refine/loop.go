package refine

import (
	"fmt"

	"repro/internal/core"
)

// Measure returns the actual cost (seconds) of running workload i under
// the allocation — in production, a measurement of the deployed VMs; in
// this repository, a simulated run (internal/vmsim). When
// Config.Opts.Parallelism > 1 the loop measures all workloads of one
// iteration concurrently, so Measure must be safe for concurrent use
// (the repository's simulated runs are: distinct VMs share only the
// systems' concurrency-safe plan caches).
type Measure func(i int, a core.Allocation) (float64, error)

// Config controls the refinement loop.
type Config struct {
	// Opts are passed to the advisor's enumerator on each re-run.
	Opts core.Options
	// MaxIters bounds refinement iterations (§5 places an upper bound to
	// guarantee termination; the paper observes convergence in 1–5).
	MaxIters int
	// Measure observes actual costs.
	Measure Measure
}

// IterationRecord captures one refinement iteration for reporting.
type IterationRecord struct {
	Allocations []core.Allocation
	Est, Act    []float64
}

// Outcome is the result of running online refinement.
type Outcome struct {
	// Allocations is the final recommendation.
	Allocations []core.Allocation
	// Models are the refined per-workload cost models.
	Models []*Model
	// History records each iteration.
	History []IterationRecord
	// Converged reports whether the recommendation stabilized before
	// MaxIters.
	Converged bool
}

// Run executes the online refinement process of §5: starting from the
// advisor's initial recommendation (with models built from its enumeration
// samples), repeatedly observe actual costs at the current recommendation,
// correct each workload's model by Act/Est, re-run the advisor over the
// refined models, and stop when the recommendation repeats or the
// iteration bound is hit.
func Run(initial *core.Result, cfg Config) (*Outcome, error) {
	if cfg.Measure == nil {
		return nil, fmt.Errorf("refine: Config.Measure is required")
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 10
	}
	n := len(initial.Allocations)
	m := cfg.Opts.Resources
	if m <= 0 {
		m = len(initial.Allocations[0])
		cfg.Opts.Resources = m
	}
	models := make([]*Model, n)
	for i := 0; i < n; i++ {
		md, err := NewModel(initial.Samples[i], m)
		if err != nil {
			return nil, fmt.Errorf("refine: workload %d: %w", i, err)
		}
		models[i] = md
	}
	out := &Outcome{Models: models, Allocations: CloneAllocs(initial.Allocations)}

	// Every iteration deploys and measures an allocation, so the best
	// observed deployment is known; the final answer keeps it. (The paper
	// stops when the recommendation repeats; retaining the best measured
	// configuration additionally guarantees refinement never ends on a
	// worse deployment than one it already measured.)
	bestActual := -1.0
	var bestAllocs []core.Allocation

	current := CloneAllocs(initial.Allocations)
	for iter := 0; iter < cfg.MaxIters; iter++ {
		rec := IterationRecord{
			Allocations: CloneAllocs(current),
			Est:         make([]float64, n),
			Act:         make([]float64, n),
		}
		// Observe actuals at the deployed allocation and refine models.
		// Measurements of distinct workloads are independent, so they fan
		// over the worker pool (the sequential-replay pattern shared with
		// repairLimits: acts land by index, then the model updates replay
		// in workload order, so the refined models — and therefore the
		// whole loop — are bit-identical across Parallelism settings).
		acts := make([]float64, n)
		if err := core.ForEach(cfg.Opts.Ctx, cfg.Opts.Parallelism, n, func(i int) error {
			act, err := cfg.Measure(i, current[i])
			if err != nil {
				return fmt.Errorf("refine: measuring workload %d: %w", i, err)
			}
			acts[i] = act
			return nil
		}); err != nil {
			return nil, err
		}
		total := 0.0
		for i := 0; i < n; i++ {
			est, err := models[i].Observe(current[i], acts[i])
			if err != nil {
				return nil, err
			}
			rec.Est[i], rec.Act[i] = est, acts[i]
			total += acts[i]
		}
		out.History = append(out.History, rec)
		if bestActual < 0 || total < bestActual {
			bestActual = total
			bestAllocs = CloneAllocs(current)
		}

		// Re-run the advisor over the refined models (no optimizer calls).
		ests := make([]core.Estimator, n)
		for i := range models {
			ests[i] = models[i]
		}
		res, err := core.Recommend(ests, cfg.Opts)
		if err != nil {
			return nil, err
		}
		if SameAllocs(res.Allocations, current) {
			out.Allocations = bestAllocs
			out.Converged = true
			return out, nil
		}
		current = CloneAllocs(res.Allocations)
	}
	out.Allocations = bestAllocs
	return out, nil
}

// CloneAllocs deep-copies an allocation vector.
func CloneAllocs(in []core.Allocation) []core.Allocation {
	out := make([]core.Allocation, len(in))
	for i, a := range in {
		out[i] = a.Clone()
	}
	return out
}

// SameAllocs reports whether two allocation vectors agree within 1e-9 in
// every share: §5's stopping rule, "the recommendation repeats", which
// both this loop and dynamic management (§6) apply.
func SameAllocs(a, b []core.Allocation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if diff := a[i][j] - b[i][j]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
	}
	return true
}
