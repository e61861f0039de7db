package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/dbms"
	"repro/internal/workload"
)

// EstimateWith evaluates est at a, fanning the estimator's internal work
// across `workers` when it implements ConcurrentEstimator and workers > 1,
// and falling back to a plain Estimate otherwise. The two paths are
// bit-identical by the ConcurrentEstimator contract; this is the single
// dispatch point used by the searcher's per-run memo and by the estimate
// cache (internal/score) that placement and the fleet share across runs.
func EstimateWith(ctx context.Context, est Estimator, workers int, a Allocation) (float64, string, error) {
	if ce, ok := est.(ConcurrentEstimator); ok && workers > 1 {
		return ce.EstimateConcurrent(ctx, workers, a)
	}
	return est.Estimate(a)
}

// ConcurrentEstimator is implemented by estimators that can fan the
// internal work of a single Estimate call across a bounded worker pool.
// The enumerators use it automatically when Options.Parallelism > 1, so
// even the sequential stretches of a search — dedicated-machine costing,
// the initial equal-share evaluation — exploit all workers when a
// workload has many statements. Implementations must return bit-identical
// results to Estimate at any worker count.
type ConcurrentEstimator interface {
	Estimator
	// EstimateConcurrent is Estimate with an explicit context and worker
	// bound; workers <= 1 must behave exactly like Estimate.
	EstimateConcurrent(ctx context.Context, workers int, a Allocation) (float64, string, error)
}

// WhatIfEstimator estimates workload cost through a calibrated query
// optimizer in what-if mode (§4.1, Fig. 4): map the candidate allocation
// to optimizer parameters, cost every statement, renormalize to seconds,
// and weight by statement frequency.
type WhatIfEstimator struct {
	// Sys is the simulated DBMS whose optimizer is consulted.
	Sys dbms.System
	// Params maps an allocation to the system's parameter type; produced
	// by internal/calibrate.
	Params func(dbms.Alloc) any
	// Renorm converts model units to seconds (§4.2).
	Renorm float64
	// Workload is the tenant's workload description.
	Workload *workload.Workload
	// FixedMem is the memory share used in single-resource (CPU-only)
	// mode, where memory is "left at its default level" (§7.3). Zero
	// means the full machine.
	FixedMem float64
	// MemOnly interprets a one-element allocation as a memory share with
	// CPU fixed at FixedCPU — the §7.4 memory-allocation experiments.
	MemOnly  bool
	FixedCPU float64
	// MachineMemBytes converts memory shares into VM bytes for the
	// deployed-plan lookup; zero defaults to 8 GB (the standard machine).
	MachineMemBytes float64
}

var _ Estimator = (*WhatIfEstimator)(nil)

// allocOf maps a core.Allocation to the DBMS allocation under the
// estimator's resource mode.
func (e *WhatIfEstimator) allocOf(a Allocation) dbms.Alloc {
	var alloc dbms.Alloc
	switch {
	case len(a) > ResMem:
		alloc = dbms.Alloc{CPU: a[ResCPU], Mem: a[ResMem]}
	case e.MemOnly:
		cpu := e.FixedCPU
		if cpu <= 0 {
			cpu = 0.5
		}
		alloc = dbms.Alloc{CPU: cpu, Mem: a[0]}
	default:
		mem := e.FixedMem
		if mem <= 0 {
			mem = 1
		}
		alloc = dbms.Alloc{CPU: a[0], Mem: mem}
	}
	return alloc.Clamp(0.01)
}

// vmMemBytes resolves the VM memory for an allocation.
func (e *WhatIfEstimator) vmMemBytes(alloc dbms.Alloc) float64 {
	machineMem := e.MachineMemBytes
	if machineMem <= 0 {
		machineMem = 8 << 30
	}
	return alloc.Mem * machineMem
}

// Estimate implements Estimator: for each statement, the deployed plan at
// the candidate memory allocation is repriced under the calibrated
// parameters (what-if mode) and renormalized to seconds.
func (e *WhatIfEstimator) Estimate(a Allocation) (float64, string, error) {
	alloc := e.allocOf(a)
	params := e.Params(alloc)
	vmMem := e.vmMemBytes(alloc)
	var total float64
	var sig strings.Builder
	for _, st := range e.Workload.Statements {
		cost, planSig, err := e.Sys.WhatIf(st.Stmt, vmMem, params)
		if err != nil {
			return 0, "", fmt.Errorf("what-if %s: %w", e.Sys.Name(), err)
		}
		total += cost * e.Renorm * st.Freq
		sig.WriteString(planSig)
		sig.WriteByte(';')
	}
	return total, sig.String(), nil
}

var _ ConcurrentEstimator = (*WhatIfEstimator)(nil)

// EstimateConcurrent implements ConcurrentEstimator: the per-statement
// what-if calls of one estimate fan out over the worker pool, and the
// per-statement costs are then combined in statement order — the same
// floating-point summation order as Estimate, so the result is
// bit-identical at any worker count.
func (e *WhatIfEstimator) EstimateConcurrent(ctx context.Context, workers int, a Allocation) (float64, string, error) {
	stmts := e.Workload.Statements
	if workers <= 1 || len(stmts) < 2 {
		return e.Estimate(a)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	alloc := e.allocOf(a)
	params := e.Params(alloc)
	vmMem := e.vmMemBytes(alloc)
	costs := make([]float64, len(stmts))
	sigs := make([]string, len(stmts))
	if err := forEach(ctx, workers, len(stmts), func(i int) error {
		cost, planSig, err := e.Sys.WhatIf(stmts[i].Stmt, vmMem, params)
		if err != nil {
			return fmt.Errorf("what-if %s: %w", e.Sys.Name(), err)
		}
		costs[i] = cost
		sigs[i] = planSig
		return nil
	}); err != nil {
		return 0, "", err
	}
	var total float64
	var sig strings.Builder
	for i, st := range stmts {
		total += costs[i] * e.Renorm * st.Freq
		sig.WriteString(sigs[i])
		sig.WriteByte(';')
	}
	return total, sig.String(), nil
}

// AvgEstimatePerQuery returns the estimated cost per query execution at
// the allocation — the §6.1 change-detection metric ("the relative change
// in the average cost estimates of workload queries").
func (e *WhatIfEstimator) AvgEstimatePerQuery(a Allocation) (float64, error) {
	total, _, err := e.Estimate(a)
	if err != nil {
		return 0, err
	}
	f := e.Workload.TotalFreq()
	if f <= 0 {
		return 0, nil
	}
	return total / f, nil
}
