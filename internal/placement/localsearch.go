package placement

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Local search: the post-greedy refinement phase. Greedy packing decides
// each tenant's machine before later tenants exist, so it can wedge the
// fleet into a locally poor shape; classic bin-packing practice follows
// the constructive pass with bounded local search. Each round enumerates
// every single-tenant move and every pairwise swap between free tenants,
// scores the affected machine configurations concurrently (deduplicated
// across the whole phase — "machine s without tenant t" backs every move
// of t off s, and configurations revisited by later rounds reuse their
// scores), and applies the single best change, accepted only when the
// fleet objective strictly improves and no tenant that met its
// degradation limit before the change violates it after. The scan order
// is fixed (moves before swaps, ascending tenant/server indexes),
// selection is a sequential replay over the scored grid, and ties keep
// the earliest candidate — bit-identical results at any
// Options.Parallelism. Each applied change strictly lowers the
// objective, so the phase terminates even without its round bound; the
// bound (Options.LocalSearch) simply caps the work.

// lsEval is one machine configuration local search needs scored.
type lsEval struct {
	members []int
	profile int // index into sh.distinct
	res     *core.Result
	// violators are the global tenant indexes past their degradation
	// limit in this configuration.
	violators []int
}

// lsChange is one candidate change: a move (u < 0) of tenant t from
// server src to dst, or a swap of tenants t (on src) and u (on dst).
// srcEval/dstEval index into the evaluation list (-1 = machine empties).
type lsChange struct {
	t, u             int
	src, dst         int
	srcMembers       []int
	dstMembers       []int
	srcEval, dstEval int
}

// violators returns the global tenant indexes of members past their
// degradation limit in a scored machine.
func violators(res *core.Result, tenants []Tenant, members []int) []int {
	if res == nil {
		return nil
	}
	var out []int
	for i, t := range members {
		lim := limit(tenants[t])
		if math.IsInf(lim, 1) {
			continue
		}
		if d := res.DedicatedCosts[i]; d > 0 && res.Costs[i]/d > lim+1e-12 {
			out = append(out, t)
		}
	}
	return out
}

// localSearch refines a finished greedy packing in place: assignment,
// machines, and totals are updated to the improved placement. Returns the
// number of changes applied.
func (sc *scorer) localSearch(assignment []int, machines []Machine, totals []float64, capacity int) (int, error) {
	servers := len(machines)
	np := len(sc.sh.distinct)
	n := len(assignment)
	free := make([]bool, n)
	for i := range free {
		free[i] = sc.opts.Pinned == nil || sc.opts.Pinned[i] < 0
	}
	viol := make([][]int, servers) // violating tenant indexes per server
	for s := range machines {
		viol[s] = violators(machines[s].Result, sc.tenants, machines[s].Tenants)
	}

	// The evaluation memo lives across rounds: a round applies one change
	// touching two machines, so the next round's candidate set differs
	// only where it involves them — everything else reuses its score.
	var evals []lsEval
	evalIdx := make(map[string]int)
	evalOf := func(members []int, profile int) int {
		if len(members) == 0 {
			return -1
		}
		var sb strings.Builder
		sb.WriteString(strconv.Itoa(profile))
		for _, t := range members {
			sb.WriteByte(',')
			sb.WriteString(strconv.Itoa(t))
		}
		k := sb.String()
		if i, ok := evalIdx[k]; ok {
			return i
		}
		evals = append(evals, lsEval{members: members, profile: profile})
		evalIdx[k] = len(evals) - 1
		return len(evals) - 1
	}

	moves := 0
	for round := 0; round < sc.opts.LocalSearch; round++ {
		// Enumerate candidates in the fixed order: single-tenant moves
		// first (tenant-major, server-minor), then pairwise swaps.
		var changes []lsChange
		for t := 0; t < n; t++ {
			if !free[t] {
				continue
			}
			src := assignment[t]
			srcMembers := removeMember(machines[src].Tenants, t)
			sawEmpty := make([]bool, np)
			for dst := 0; dst < servers; dst++ {
				if dst == src || len(machines[dst].Tenants) >= capacity {
					continue
				}
				if len(machines[dst].Tenants) == 0 {
					d := sc.sh.profIdx[dst]
					// Empty machines of one profile are interchangeable:
					// score only the first. Moving a machine's sole tenant
					// to an empty same-profile machine is a pure relabeling.
					if sawEmpty[d] {
						continue
					}
					sawEmpty[d] = true
					if len(machines[src].Tenants) == 1 && sc.sh.profIdx[src] == d {
						continue
					}
				}
				ch := lsChange{
					t: t, u: -1, src: src, dst: dst,
					srcMembers: srcMembers,
					dstMembers: appendMember(machines[dst].Tenants, t),
				}
				ch.srcEval = evalOf(ch.srcMembers, sc.sh.profIdx[src])
				ch.dstEval = evalOf(ch.dstMembers, sc.sh.profIdx[dst])
				changes = append(changes, ch)
			}
			for u := t + 1; u < n; u++ {
				if !free[u] || assignment[u] == src {
					continue
				}
				dst := assignment[u]
				// Swapping the sole tenants of two same-profile machines is
				// a relabeling, not a change.
				if sc.sh.profIdx[src] == sc.sh.profIdx[dst] &&
					len(machines[src].Tenants) == 1 && len(machines[dst].Tenants) == 1 {
					continue
				}
				ch := lsChange{
					t: t, u: u, src: src, dst: dst,
					srcMembers: appendMember(removeMember(machines[src].Tenants, t), u),
					dstMembers: appendMember(removeMember(machines[dst].Tenants, u), t),
				}
				ch.srcEval = evalOf(ch.srcMembers, sc.sh.profIdx[src])
				ch.dstEval = evalOf(ch.dstMembers, sc.sh.profIdx[dst])
				changes = append(changes, ch)
			}
		}
		if len(changes) == 0 {
			break
		}

		// Score the configurations this round added to the memo, over the
		// worker pool; each concurrent scoring gets an equal slice of the
		// budget. Configurations from earlier rounds keep their results.
		var pending []int
		for i := range evals {
			if evals[i].res == nil {
				pending = append(pending, i)
			}
		}
		share := core.BatchShare(sc.opts.Core.Parallelism, len(pending))
		if err := forEachTenant(sc.opts, len(pending), func(k int) error {
			i := pending[k]
			res, err := sc.recommend(evals[i].members, evals[i].profile, share)
			if err != nil {
				return fmt.Errorf("placement: local search scoring: %w", err)
			}
			evals[i].res = res
			evals[i].violators = violators(res, sc.tenants, evals[i].members)
			return nil
		}); err != nil {
			return moves, err
		}

		// Sequential replay: the strictly-improving change with the largest
		// objective drop wins; ties keep the earliest candidate. A change
		// is rejected outright when any tenant that met its degradation
		// limit on the two touched machines would violate it afterwards —
		// cheaper is not better if it breaks someone's QoS. (Tenants
		// already violating — best-effort placements of unsatisfiable
		// limits, §7.5 — do not veto changes.)
		best := -1
		bestDelta := 0.0
		for ci := range changes {
			ch := &changes[ci]
			wasViolating := make(map[int]bool, len(viol[ch.src])+len(viol[ch.dst]))
			for _, v := range viol[ch.src] {
				wasViolating[v] = true
			}
			for _, v := range viol[ch.dst] {
				wasViolating[v] = true
			}
			newCost := 0.0
			newlyViolating := false
			for _, ev := range []int{ch.srcEval, ch.dstEval} {
				if ev < 0 {
					continue
				}
				newCost += evals[ev].res.TotalCost
				for _, v := range evals[ev].violators {
					if !wasViolating[v] {
						newlyViolating = true
					}
				}
			}
			if newlyViolating {
				continue
			}
			if delta := newCost - totals[ch.src] - totals[ch.dst]; delta < bestDelta {
				best, bestDelta = ci, delta
			}
		}
		if best < 0 {
			break
		}
		ch := &changes[best]
		apply := func(s int, members []int, ev int) {
			machines[s].Tenants = members
			if ev < 0 {
				machines[s].Result = nil
				totals[s] = 0
				viol[s] = nil
				return
			}
			machines[s].Result = evals[ev].res
			totals[s] = evals[ev].res.TotalCost
			viol[s] = evals[ev].violators
		}
		apply(ch.src, ch.srcMembers, ch.srcEval)
		apply(ch.dst, ch.dstMembers, ch.dstEval)
		assignment[ch.t] = ch.dst
		if ch.u >= 0 {
			assignment[ch.u] = ch.src
		}
		moves++
	}
	return moves, nil
}

// removeMember returns members without tenant t (order preserved).
func removeMember(members []int, t int) []int {
	out := make([]int, 0, len(members)-1)
	for _, m := range members {
		if m != t {
			out = append(out, m)
		}
	}
	return out
}

// appendMember returns members plus tenant t at the end — the same
// "newcomers join last" convention the greedy enumerator uses, so
// configurations reached by either phase share score-cache entries.
func appendMember(members []int, t int) []int {
	out := make([]int, 0, len(members)+1)
	out = append(out, members...)
	return append(out, t)
}
