package core

import "math"

// repairLimits moves δ-shares toward workloads whose current degradation
// exceeds their limit L_i, choosing for each step the (resource, donor)
// pair that costs the donor least, subject to the donor's own limit and
// the MinShare floor. It mutates allocs and costs in place. The loop ends
// when all limits hold or the most-violating workload cannot be improved,
// leaving the best-effort allocation (limits may be unsatisfiable; §7.5
// shows exactly that for L_9 = 1.5).
//
// Each repair step costs its candidate moves — the violator's ±δ uplifts
// and every donor's δ-reduction — over the worker pool before replaying
// the sequential selection on the costed set, mirroring the two-phase
// structure of the main greedy loop. The candidate set, the single
// s.cost call per distinct (workload, allocation), and the selection
// arithmetic are all independent of Parallelism, so repaired allocations
// and cache statistics are bit-identical across settings.
func repairLimits(s *searcher, allocs []Allocation, costs, dedicated []float64, opts Options,
	adjusted func(i, j int, delta float64) (Allocation, error)) error {
	n := len(allocs)
	anyLimit := false
	for i := range opts.Limits {
		if !math.IsInf(opts.Limits[i], 1) {
			anyLimit = true
			break
		}
	}
	if !anyLimit {
		return nil // nothing can be violated
	}

	// costTask is one distinct (workload, allocation) evaluation a repair
	// step needs; sm is filled by the parallel costing pass.
	type costTask struct {
		i  int
		a  Allocation
		sm Sample
	}

	maxRepairs := opts.MaxIters
	for step := 0; step < maxRepairs; step++ {
		if err := opts.Ctx.Err(); err != nil {
			return err
		}
		// Current costs of every workload (memo hits after step 0); found
		// sequentially so the violation scan stays deterministic.
		curSm := make([]Sample, n)
		for i := 0; i < n; i++ {
			sm, err := s.cost(i, allocs[i], s.stmtWorkers)
			if err != nil {
				return err
			}
			curSm[i] = sm
		}
		// Find the worst violation.
		worst, worstRatio := -1, 1.0
		for i := 0; i < n; i++ {
			if math.IsInf(opts.Limits[i], 1) || dedicated[i] <= 0 {
				continue
			}
			d := curSm[i].Seconds / dedicated[i]
			if ratio := d / opts.Limits[i]; ratio > worstRatio+1e-12 {
				worst, worstRatio = i, ratio
			}
		}
		if worst < 0 {
			return nil // all limits satisfied
		}

		// Phase 1 costs this step's candidates over the worker pool in two
		// waves, so no estimate the sequential selection provably never
		// reads is ever computed: wave 1 costs the violator's ≤M uplifts;
		// wave 2 costs donor reductions only on resources whose uplift
		// actually improves the violator (phase 2 skips the others).
		type taskKey struct {
			i int
			k AllocKey
		}
		var tasks []costTask
		taskAt := make(map[taskKey]int) // (workload, alloc key) → index
		add := func(i int, a Allocation) {
			k := taskKey{i, KeyOf(a)}
			if _, ok := taskAt[k]; ok {
				return
			}
			taskAt[k] = len(tasks)
			tasks = append(tasks, costTask{i: i, a: a})
		}
		costFrom := func(start int) error {
			wave := tasks[start:]
			share := BatchShare(opts.Parallelism, len(wave))
			return forEach(opts.Ctx, opts.Parallelism, len(wave), func(t int) error {
				sm, err := s.cost(wave[t].i, wave[t].a, share)
				if err != nil {
					return err
				}
				wave[t].sm = sm
				return nil
			})
		}
		smOf := func(i int, a Allocation) Sample { return tasks[taskAt[taskKey{i, KeyOf(a)}]].sm }

		ups := make([]Allocation, opts.Resources)
		for j := 0; j < opts.Resources; j++ {
			if up, err := adjusted(worst, j, opts.Delta); err == nil {
				ups[j] = up
				add(worst, up)
			}
		}
		if err := costFrom(0); err != nil {
			return err
		}
		donorsFrom := len(tasks)
		downs := make([][]Allocation, opts.Resources)
		for j := 0; j < opts.Resources; j++ {
			downs[j] = make([]Allocation, n)
			if ups[j] == nil || curSm[worst].Seconds-smOf(worst, ups[j]).Seconds <= 0 {
				// Infeasible or non-improving uplift: phase 2 skips this
				// resource entirely, so don't cost its donors.
				continue
			}
			for d := 0; d < n; d++ {
				if d == worst || allocs[d][j]-opts.Delta < opts.MinShare-1e-9 {
					continue
				}
				if down, err := adjusted(d, j, -opts.Delta); err == nil {
					downs[j][d] = down
					add(d, down)
				}
			}
		}
		if err := costFrom(donorsFrom); err != nil {
			return err
		}

		// Phase 2: replay the sequential selection over the costed set.
		// Best repairing move: maximize the violator's improvement per
		// unit of donor loss; require the violator to actually improve.
		bestJ, bestDonor := -1, -1
		bestScore := math.Inf(-1)
		var bestVCost, bestDCost float64
		for j := 0; j < opts.Resources; j++ {
			if ups[j] == nil {
				continue
			}
			upSm := smOf(worst, ups[j])
			improve := curSm[worst].Seconds - upSm.Seconds
			if improve <= 0 {
				continue
			}
			for d := 0; d < n; d++ {
				if downs[j][d] == nil {
					continue
				}
				downSm := smOf(d, downs[j][d])
				// The donor must stay within its own limit.
				if dedicated[d] > 0 && downSm.Seconds/dedicated[d] > opts.Limits[d]+1e-12 {
					continue
				}
				loss := downSm.Seconds - curSm[d].Seconds
				score := improve - 1e-3*loss // prefer cheap donors
				if score > bestScore {
					bestScore = score
					bestJ, bestDonor = j, d
					bestVCost, bestDCost = upSm.Seconds, downSm.Seconds
				}
			}
		}
		if bestJ < 0 {
			return nil // violation cannot be repaired further
		}
		allocs[worst][bestJ] += opts.Delta
		allocs[bestDonor][bestJ] -= opts.Delta
		costs[worst] = opts.Gains[worst] * bestVCost
		costs[bestDonor] = opts.Gains[bestDonor] * bestDCost
	}
	return nil
}
