package fleet

// Cross-cell rebalancing: the bounded escape hatch from the cell
// architecture's one restriction. Cells keep each period's work local,
// but tenants route to a cell once (arrival) and then never leave it —
// so lopsided churn (one cell's tenants depart, another's stay) slowly
// skews load with no mechanism to drain it that doesn't reintroduce the
// fleet-wide scans cells exist to avoid. The rebalancer is that
// mechanism, kept deliberately small: after a period's cells have
// computed (or replayed), it ranks every (hot cell, cold cell) pair by
// the gap in mean machine load between them and drains tenants down the
// largest gaps — each move seated on the cold cell's least-loaded
// machine, priced by four single-machine what-ifs (source and
// destination, with and without the mover), QoS-checked against every
// squeezed resident's degradation limit on the priced destination run,
// and adopted only when the estimated improvement strictly beats
// MigrationCost. A pair whose move
// fails to seat or to pay is set aside for the rest of the pass and the
// next-ranked gap is tried, so one stubborn hot spot cannot starve the
// others — correlated hot spots (several cells heated at once) drain in
// one period instead of one cell per period. Both adopted moves and
// failed attempts count against Options.RebalanceBudget, so a
// period's rebalancing work stays O(RebalanceBudget) machine scorings
// plus cheap pressure scans, never a fleet-wide search; at budget 1 the
// first failure ends the pass, which reproduces the classic single-move
// hottest→coldest rebalancer exactly. Adopted moves are committed into
// the assignment and take effect next period, dirtying exactly the
// cells involved.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/placement"
)

// rebalanceMove is one adopted cross-cell migration: tenant id moves
// from global server from to global server to (in another cell).
type rebalanceMove struct {
	id       string
	from, to int
}

// rebalance evaluates up to Options.RebalanceBudget cross-cell moves over
// the merged period outcome. It reads rep and the orchestrator's
// partition but mutates nothing — the caller applies the returned moves
// at commit. Deterministic: every scan is index-ordered, ties break
// toward the smaller index or ID.
func (o *Orchestrator) rebalance(rep *PeriodReport, tenants []Tenant, ptenants []placement.Tenant) ([]rebalanceMove, error) {
	nc := len(o.cells)
	if o.opts.RebalanceBudget <= 0 || nc <= 1 {
		return nil, nil
	}
	capacity := placement.Capacity(placement.Options{Profiles: o.opts.Profiles, Core: o.opts.Core})
	idx := make(map[string]int, len(tenants))
	for i, t := range tenants {
		idx[t.ID] = i
	}
	// Post-period residents per machine (input indexes, in the machines'
	// deterministic report order) and two per-tenant cost readings: the
	// raw (unweighted) machine-seconds each tenant costs at its current
	// machine, and the gain-weighted version. The two signals have
	// different jobs and must not mix units. load[] aggregates RAW costs
	// into per-cell mean pressure — pressure measures how much compute a
	// cell's machines actually carry, and the post-move update below
	// subtracts the same raw quantity, so a multi-move pass walks a
	// consistent gap. gw[] ranks who moves: a high-gain tenant is the
	// most valuable one to relieve, even if its raw seconds are modest.
	residents := make([][]int, len(o.machines))
	gw := make([]float64, len(tenants))
	raw := make([]float64, len(tenants))
	load := make([]float64, nc)
	count := make([]int, nc)
	for s := range o.machines {
		m := rep.Machines[s]
		if m.Dyn == nil {
			continue
		}
		c := o.cellOf[s]
		count[c] += len(m.TenantIDs)
		for k, id := range m.TenantIDs {
			i := idx[id]
			residents[s] = append(residents[s], i)
			if m.Result != nil {
				g := tenants[i].Gain
				if g < 1 {
					g = 1
				}
				raw[i] = m.Result.Costs[k]
				gw[i] = g * m.Result.Costs[k]
				load[c] += m.Result.Costs[k]
			}
		}
	}
	pressure := func(c int) float64 {
		if len(o.cells[c]) == 0 {
			return 0
		}
		return load[c] / float64(len(o.cells[c]))
	}

	budget := o.opts.RebalanceBudget
	var moves []rebalanceMove
	// failed remembers the (hot, cold) pairs whose attempt could not
	// seat or pay this period — the inputs have not changed, so retrying
	// them would re-derive the same refusal. Failed attempts spend
	// budget too, bounding the pass at 2·RebalanceBudget pricing attempts.
	failed := map[[2]int]bool{}
	// deadHot marks hot cells with no unpinned tenant to move — a
	// property of the cell alone, so every pair it sources is hopeless.
	deadHot := map[int]bool{}
	failures := 0
	for len(moves) < budget && failures < budget {
		// The largest remaining pressure gap: hot must host someone,
		// cold must have spare capacity, and the gap must be positive.
		// The strict > keeps the first (smallest hot, then cold index)
		// of any tie, which makes the top-ranked pair exactly the
		// classic hottest/coldest selection — at budget 1 this loop IS
		// the single-move rebalancer, bit for bit.
		hot, cold, gap := -1, -1, 0.0
		for h := 0; h < nc; h++ {
			if count[h] == 0 || deadHot[h] {
				continue
			}
			ph := pressure(h)
			for c := 0; c < nc; c++ {
				if c == h || len(o.cells[c]) == 0 || count[c] >= len(o.cells[c])*capacity {
					continue
				}
				if failed[[2]int{h, c}] {
					continue
				}
				if g := ph - pressure(c); g > gap {
					hot, cold, gap = h, c, g
				}
			}
		}
		if hot < 0 {
			break
		}
		setAside := func() {
			failed[[2]int{hot, cold}] = true
			failures++
		}
		// The mover: the hot cell's heaviest unpinned tenant (gain-
		// weighted cost descending, then the smaller ID).
		mover, moverSrv := -1, -1
		for _, s := range o.cells[hot] {
			for _, i := range residents[s] {
				if tenants[i].Pin != 0 {
					continue
				}
				if mover < 0 || gw[i] > gw[mover] ||
					(gw[i] == gw[mover] && tenants[i].ID < tenants[mover].ID) {
					mover, moverSrv = i, s
				}
			}
		}
		if mover < 0 {
			deadHot[hot] = true
			failures++
			continue
		}
		// The destination seat: the cold cell's least-populated machine
		// with a free slot (ties to the smaller local index). The
		// admission probe's canonical first-feasible seat is wrong here —
		// it would pile every drain onto the cell's first machine, and
		// once that machine carries one mover, pricing refuses all later
		// drains while an empty machine sits further down the cell. QoS
		// feasibility is checked on the priced destination run below, so
		// the better seat costs no extra scoring.
		seat, dstSrv := -1, -1
		for l, s := range o.cells[cold] {
			if len(residents[s]) >= capacity {
				continue
			}
			if seat < 0 || len(residents[s]) < len(residents[dstSrv]) {
				seat, dstSrv = l, s
			}
		}
		if seat < 0 {
			setAside()
			continue
		}

		// Price the move with four single-machine what-ifs, all in the
		// placement objective's basis (fingerprinted estimators, cell
		// cache shards): improvement = what the source machine sheds
		// minus what the destination machine takes on.
		score := func(copts placement.Options, server int, members []int) (*core.Result, []placement.Tenant, error) {
			if len(members) == 0 {
				return nil, nil, nil
			}
			pt := make([]placement.Tenant, len(members))
			for k, i := range members {
				pt[k] = ptenants[i]
			}
			all := make([]int, len(members))
			for k := range all {
				all[k] = k
			}
			res, err := placement.ScoreMachine(pt, copts, server, all)
			if err != nil {
				return nil, nil, fmt.Errorf("fleet: rebalance pricing cell server %d: %w", server, err)
			}
			return res, pt, nil
		}
		cost := func(res *core.Result) float64 {
			if res == nil {
				return 0
			}
			return res.TotalCost
		}
		srcRemain := make([]int, 0, len(residents[moverSrv])-1)
		for _, i := range residents[moverSrv] {
			if i != mover {
				srcRemain = append(srcRemain, i)
			}
		}
		srcBeforeRes, _, err := score(o.cellOpts(hot), o.localIdx[moverSrv], residents[moverSrv])
		if err != nil {
			return nil, err
		}
		srcAfterRes, _, err := score(o.cellOpts(hot), o.localIdx[moverSrv], srcRemain)
		if err != nil {
			return nil, err
		}
		dstBeforeRes, _, err := score(o.cellOpts(cold), seat, residents[dstSrv])
		if err != nil {
			return nil, err
		}
		dstMembers := append(append([]int(nil), residents[dstSrv]...), mover)
		dstAfterRes, dstPT, err := score(o.cellOpts(cold), seat, dstMembers)
		if err != nil {
			return nil, err
		}
		// The destination run doubles as the admission check: every
		// member of the proposed machine (the mover and the residents it
		// would squeeze) must stay within its degradation limit.
		allDst := make([]int, len(dstPT))
		for k := range allDst {
			allDst[k] = k
		}
		if !placement.WithinLimits(dstAfterRes, dstPT, allDst) {
			setAside()
			continue
		}
		improvement := (cost(srcBeforeRes) - cost(srcAfterRes)) - (cost(dstAfterRes) - cost(dstBeforeRes))
		// The same hysteresis rule as within-cell migration: the move
		// must strictly beat its cost (at MigrationCost 0 any strict
		// improvement is enough; +Inf freezes rebalancing too).
		if !(improvement > o.opts.MigrationCost) {
			setAside()
			continue
		}
		moves = append(moves, rebalanceMove{id: tenants[mover].ID, from: moverSrv, to: dstSrv})
		// Bookkeeping for the next iteration: the mover changes machine
		// and cell, taking its RAW cost with it — load[] is in raw
		// machine-seconds, so updating it with the gain-weighted cost
		// would skew (even negate) the pressure gap the next move ranks
		// by whenever Gain > 1 tenants are in play.
		residents[moverSrv] = srcRemain
		residents[dstSrv] = append(residents[dstSrv], mover)
		count[hot]--
		count[cold]++
		load[hot] -= raw[mover]
		load[cold] += raw[mover]
	}
	return moves, nil
}
