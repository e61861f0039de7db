package core

// Dominance pruning for the greedy enumerator's candidate batches — the
// greedy counterpart of Exhaustive's lattice pruning. Each iteration of
// Fig. 11 costs an up-candidate (workload i gains δ of resource j) for
// every workload, but an up-candidate can only be selected when its gain
// is strictly positive: Phase 2 requires costs[i] − cost(up) > maxGain
// with maxGain starting at 0. A workload already costing no more than
// its dedicated-machine floor therefore can never win an increase when
// its cost surface is monotone non-increasing in every resource — the
// floor is the monotone minimum, so cost(up) ≥ dedicated ≥ cost(now)
// and the gain is ≤ 0. Such up-candidates are skipped before any
// estimator work and counted in Result.DominancePruned.
//
// Monotonicity is never assumed: it is verified against every pair of
// comparable samples observed for the workload so far, and a single
// violation disables pruning for that workload permanently, so
// arbitrary estimators remain exact. Pruning is decided from state that
// is identical at any Options.Parallelism (the sample set at an
// iteration boundary is the sequential set), so results stay
// bit-identical across Parallelism — and, because only never-selectable
// candidates are skipped, identical with pruning disabled too. Only the
// evaluation counters (EstimatorCalls, CacheHits, Samples) shrink.

// disableGreedyDominance turns the pruning off; the brute-force parity
// test flips it to prove pruned and unpruned runs pick identical
// allocations.
var disableGreedyDominance bool

// monoCheck verifies per workload that the samples observed so far are
// monotone non-increasing: whenever one allocation is elementwise ≤
// another, its cost is ≥ the other's. Verification is re-run only when
// the workload's memo grew, and one violation sticks.
type monoCheck struct {
	s       *searcher
	checked []int // sample count at the last verification
	ok      []bool
}

func newMonoCheck(s *searcher, n int) *monoCheck {
	m := &monoCheck{s: s, checked: make([]int, n), ok: make([]bool, n)}
	for i := range m.ok {
		m.ok[i] = true
	}
	return m
}

// monotone reports whether workload i's observed cost surface is still
// consistent with monotonicity.
func (m *monoCheck) monotone(i int) bool {
	if !m.ok[i] {
		return false
	}
	// Between candidate batches nothing is in flight and no entry holds
	// an error (any error ends the search), so the memo's entry count is
	// the sample count.
	if m.s.memos[i].Len() == m.checked[i] {
		return true
	}
	sms := m.s.samples(i)
	// All pairs over the full set: greedy visits tens of allocations per
	// workload, so the quadratic check is cheap, and re-checking old
	// pairs beats incremental bookkeeping that could drift.
	for x := 0; x < len(sms) && m.ok[i]; x++ {
		for y := 0; y < len(sms); y++ {
			if x == y {
				continue
			}
			le := true
			for j := range sms[x].Alloc {
				if sms[x].Alloc[j] > sms[y].Alloc[j]+1e-12 {
					le = false
					break
				}
			}
			if le && sms[y].Seconds > sms[x].Seconds {
				m.ok[i] = false
				break
			}
		}
	}
	m.checked[i] = len(sms)
	return m.ok[i]
}
