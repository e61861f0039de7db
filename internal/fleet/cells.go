package fleet

// Cells: the orchestrator's scale-out layer. A monitoring period over a
// flat fleet prices every tenant against every machine; past a few
// hundred servers that is quadratic work even when nothing changed. The
// fleet is therefore partitioned into placement cells (the
// profile-grouped round-robin partition of partition.go, at most
// Options.Cells machines each) and the period becomes per-cell work:
// each tenant is routed to a cell — survivors to their incumbent
// server's cell, arrivals to the cell with the most free slots — and
// every cell then runs the full
// existing period machinery (candidate placement, migration hysteresis,
// per-machine managers) over only its own machines, tenants, and cache
// shards. Cells are disjoint, so they run in parallel over the worker
// pool; their outcomes are merged into one PeriodReport in fixed cell
// order, and every per-cell decision is deterministic, which keeps
// reports bit-identical at Parallelism 1 vs 8. A fleet of at most Cells
// machines forms a single cell whose local indexes equal the global
// ones, so the cellular path reproduces the flat orchestrator bit for
// bit — there is no separate non-cellular code path to drift from.

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dynmgmt"
	"repro/internal/obs"
	"repro/internal/placement"
)

// cellOpts is the placement-option template for one cell: the cell's
// servers (as local indexes 0..len(cell)-1), its cache shards, and the
// orchestrator-wide search options.
func (o *Orchestrator) cellOpts(c int) placement.Options {
	return placement.Options{
		Profiles:    o.cellProfiles[c],
		Core:        o.opts.Core,
		Scores:      o.scores[c],
		Estimates:   o.estimates[c],
		LocalSearch: o.opts.LocalSearch,
		Metrics:     o.met.placement,
	}
}

// route assigns every tenant of the period to a cell and runs QoS
// admission control (Options.AdmitQoS) along the way, recording
// rejections in rep. Survivors keep their incumbent server's cell — an
// unpinned survivor never crosses cells — and a tenant with Tenant.Pin
// set is routed to the pinned server's cell unconditionally, bypassing
// admission control (a pin is an order, not a request). Free arrivals
// go, in input order, to the best-ranked cell (most free slots, then
// fewest routed tenants, then the smaller index); under admission
// control an arrival is seated via placement.AdmitSeat against the
// cell's incumbents plus the batch admitted so far, and a cell that
// cannot seat it falls through to the next-ranked candidate cell before
// the arrival is rejected. Returns the per-cell tenant input indexes in
// input order.
func (o *Orchestrator) route(tenants []Tenant, ptenants []placement.Tenant, pinned []int, rep *PeriodReport) ([][]int, error) {
	nc := len(o.cells)
	capacity := placement.Capacity(placement.Options{Profiles: o.opts.Profiles, Core: o.opts.Core})
	sc := &o.scratch
	sc.slots = scratchSlice(sc.slots, nc)
	slots := sc.slots
	sc.count = scratchSlice(sc.count, nc)
	count := sc.count
	for c, ss := range o.cells {
		slots[c] = len(ss) * capacity
	}
	sc.cellOfTenant = scratchSlice(sc.cellOfTenant, len(tenants))
	cellOfTenant := sc.cellOfTenant
	for i := range cellOfTenant {
		cellOfTenant[i] = -1
	}
	// seatOf is the pre-routed tenants' known local seat: the pin target
	// for pinned tenants, the incumbent server otherwise.
	sc.seatOf = scratchSlice(sc.seatOf, len(tenants))
	seatOf := sc.seatOf
	for i, s := range pinned {
		seat := s
		if p := tenants[i].Pin; p > 0 {
			seat = p - 1 // pins win over (and may cross) the incumbent cell
		}
		seatOf[i] = seat
		if seat >= 0 {
			c := o.cellOf[seat]
			cellOfTenant[i] = c
			slots[c]--
			count[c]++
		}
	}
	better := func(a, b int) bool {
		if slots[a] != slots[b] {
			return slots[a] > slots[b]
		}
		if count[a] != count[b] {
			return count[a] < count[b]
		}
		return a < b
	}

	// Admission state: the tenants seated per cell (incumbents plus the
	// arrivals admitted so far this period), in input order, with their
	// local seats — the joint seat-and-check batch semantics of
	// Options.AdmitQoS, kept per cell.
	admitted := 0
	var baseSlots []int
	var members [][]int
	var seats []map[int]int
	if o.opts.AdmitQoS {
		baseSlots = append([]int(nil), slots...)
		members = make([][]int, nc)
		seats = make([]map[int]int, nc)
		for c := range seats {
			seats[c] = make(map[int]int, count[c])
		}
		for i, s := range seatOf {
			if s >= 0 {
				c := o.cellOf[s]
				members[c] = append(members[c], i)
				seats[c][i] = o.localIdx[s]
			}
		}
	}
	// admissionView localizes an admission check: cell c's seated members
	// (incumbents only, when incumbentOnly) in input order, with the
	// arrival i spliced in at its input position, unpinned. Member order
	// matches the flat orchestrator's input-order resident lists, so a
	// one-cell fleet admits bit-identically.
	admissionView := func(c, i int, incumbentOnly bool) ([]placement.Tenant, []int, int) {
		idxs := members[c]
		if incumbentOnly {
			idxs = idxs[:0:0]
			for k, s := range pinned {
				if s >= 0 && o.cellOf[s] == c {
					idxs = append(idxs, k)
				}
			}
		}
		pos := sort.SearchInts(idxs, i)
		pt := make([]placement.Tenant, 0, len(idxs)+1)
		pin := make([]int, 0, len(idxs)+1)
		for _, idx := range idxs {
			pt = append(pt, ptenants[idx])
			if incumbentOnly {
				pin = append(pin, o.localIdx[pinned[idx]])
			} else {
				pin = append(pin, seats[c][idx])
			}
		}
		pt = append(pt[:pos:pos], append([]placement.Tenant{ptenants[i]}, pt[pos:]...)...)
		pin = append(pin[:pos:pos], append([]int{-1}, pin[pos:]...)...)
		return pt, pin, pos
	}
	admitTo := func(c, i int) (bool, error) {
		pt, pin, pos := admissionView(c, i, false)
		copts := o.cellOpts(c)
		copts.Pinned = pin
		seat, err := placement.AdmitSeat(pt, copts, pos)
		if err != nil {
			return false, fmt.Errorf("fleet: admission check for %q: %w", tenants[i].ID, err)
		}
		if seat < 0 {
			return false, nil
		}
		m := members[c]
		at := sort.SearchInts(m, i)
		members[c] = append(m[:at:at], append([]int{i}, m[at:]...)...)
		seats[c][i] = seat
		return true, nil
	}
	// anyAdmissible asks whether the arrival would fit beside the
	// incumbents alone in some cell, ignoring the batch — the
	// batch-conflict vs genuine-QoS classification probe.
	anyAdmissible := func(i int) (bool, error) {
		for c := 0; c < nc; c++ {
			if len(o.cells[c]) == 0 {
				continue
			}
			pt, pin, pos := admissionView(c, i, true)
			copts := o.cellOpts(c)
			copts.Pinned = pin
			seat, err := placement.AdmitSeat(pt, copts, pos)
			if err != nil {
				return false, fmt.Errorf("fleet: admission check for %q: %w", tenants[i].ID, err)
			}
			if seat >= 0 {
				return true, nil
			}
		}
		return false, nil
	}

	for i, t := range tenants {
		if cellOfTenant[i] >= 0 {
			continue
		}
		if !o.opts.AdmitQoS {
			best := -1
			for c := 0; c < nc; c++ {
				if slots[c] > 0 && (best < 0 || better(c, best)) {
					best = c
				}
			}
			if best < 0 {
				// No free slot anywhere: route to the best-ranked
				// non-empty cell regardless and let its placement run
				// report the same capacity error the flat enumerator
				// would. (A cell emptied by RemoveServer has no
				// machines to error on and is never a target.)
				for c := 0; c < nc; c++ {
					if len(o.cells[c]) == 0 {
						continue
					}
					if best < 0 || better(c, best) {
						best = c
					}
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("fleet: no servers left to host tenant %q", t.ID)
			}
			cellOfTenant[i] = best
			slots[best]--
			count[best]++
			continue
		}
		totalBase, totalSlots := 0, 0
		for c := 0; c < nc; c++ {
			totalBase += baseSlots[c]
			totalSlots += slots[c]
		}
		var reason RejectReason
		switch {
		case totalBase <= 0:
			reason = RejectCapacity
		case totalSlots <= 0:
			// The batch consumed the incumbents' spare slots: a batch
			// conflict if the arrival would have fit alone, a QoS
			// rejection if it could not have joined anyway.
			ok, err := anyAdmissible(i)
			if err != nil {
				return nil, err
			}
			if ok {
				reason = RejectBatchConflict
			} else {
				reason = RejectQoS
			}
		default:
			var order []int
			for c := 0; c < nc; c++ {
				if slots[c] > 0 {
					order = append(order, c)
				}
			}
			sort.SliceStable(order, func(x, y int) bool { return better(order[x], order[y]) })
			seated := false
			for _, c := range order {
				ok, err := admitTo(c, i)
				if err != nil {
					return nil, err
				}
				if ok {
					cellOfTenant[i] = c
					slots[c]--
					count[c]++
					admitted++
					seated = true
					break
				}
			}
			if seated {
				continue
			}
			reason = RejectQoS
			if admitted > 0 {
				ok, err := anyAdmissible(i)
				if err != nil {
					return nil, err
				}
				if ok {
					reason = RejectBatchConflict
				}
			}
		}
		rep.Rejected = append(rep.Rejected, t.ID)
		rep.RejectedReasons = append(rep.RejectedReasons, reason)
		rep.Arrivals--
	}

	// The per-cell index lists reuse the pooled backing arrays (truncate,
	// don't zero — zeroing would drop the sub-slices' capacity).
	if cap(sc.inputs) < nc {
		grown := make([][]int, nc)
		copy(grown, sc.inputs)
		sc.inputs = grown
	} else {
		sc.inputs = sc.inputs[:nc]
	}
	out := sc.inputs
	for c := range out {
		out[c] = out[c][:0]
	}
	for i, c := range cellOfTenant {
		if c >= 0 {
			out[c] = append(out[c], i)
		}
	}
	return out, nil
}

// cellOutcome is one cell's share of a period, merged into the fleet
// PeriodReport in fixed cell order.
type cellOutcome struct {
	candidateCost, stayCost float64
	lsImprovement           float64
	replaced                bool
	migrations              int
	totalCost, maxDeg       float64
	qosViolations, rebuilds int
	assignment              map[string]int
	allocations             map[string]core.Allocation
	degradations            map[string]float64
	machines                map[int]MachineReport
}

// periodCell runs one cell's slice of a monitoring period: candidate
// placement vs stay-put with migration hysteresis over the cell's
// machines, then the cell's per-machine dynamic managers in server
// order. inputIdxs are the cell's tenants as indexes into the period's
// input (ascending); workers is the cell's slice of the worker pool. All
// state touched — machines, cache shards — belongs to this cell alone,
// so concurrent periodCell calls for different cells never race; the
// caller holds the fleet-wide manager snapshot for rollback. span is
// this cell's pre-created trace span (nil when tracing is off); it is
// owned by this call, so appending children here never races with
// other cells.
func (o *Orchestrator) periodCell(c int, inputIdxs []int, tenants []Tenant, ptenants []placement.Tenant, pinned []int, workers int, span *obs.Span) (*cellOutcome, error) {
	n := len(inputIdxs)
	lt := make([]Tenant, n)
	lpt := make([]placement.Tenant, n)
	lpin := make([]int, n) // incumbent seat (this cell) or -1
	lcon := make([]int, n) // pin constraint (this cell) or -1
	anySurvivor := false
	anyPin := false
	arrivals := 0
	for k, i := range inputIdxs {
		lt[k] = tenants[i]
		lpt[k] = ptenants[i]
		lcon[k] = -1
		if p := tenants[i].Pin; p > 0 {
			lcon[k] = o.localIdx[p-1]
			anyPin = true
		}
		// A survivor whose incumbent lives in another cell (a pin moved
		// it here) enters this cell like an arrival: it has no local
		// incumbent seat to stay on.
		if s := pinned[i]; s >= 0 && o.cellOf[s] == c {
			lpin[k] = o.localIdx[s]
			anySurvivor = true
		} else {
			lpin[k] = -1
			arrivals++
		}
	}
	popts := o.cellOpts(c)
	popts.Core.Parallelism = workers
	// The candidate run's greedy and local-search phases report directly
	// under the cell span; the stay-put run (below) gets its own child so
	// the phases stay attributable.
	popts.Trace = span
	var hits0 int64
	if span != nil {
		hits0 = o.scores[c].Hits()
	}
	if anyPin {
		// Pins constrain every placement run of this cell: the candidate
		// and the stay-put pricing run below both hold pinned tenants on
		// their servers.
		popts.Pinned = lcon
	}
	out := &cellOutcome{
		assignment:   make(map[string]int, n),
		allocations:  make(map[string]core.Allocation, n),
		degradations: make(map[string]float64, n),
		machines:     make(map[int]MachineReport),
	}

	// The candidate re-placement: with local search on, seeded from the
	// incumbents (arrivals placed greedily, then local search refines the
	// cell); otherwise packed greedily from scratch, since a seeded
	// candidate without local search could never move a survivor.
	var candidate *placement.Placement
	var err error
	if o.opts.LocalSearch > 0 && anySurvivor {
		candidate, err = placement.PlaceSeeded(lpt, popts, lpin)
	} else {
		candidate, err = placement.Place(lpt, popts)
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: candidate placement: %w", err)
	}
	out.candidateCost = candidate.TotalCost
	out.stayCost = candidate.TotalCost
	out.lsImprovement = candidate.GreedyCost - candidate.TotalCost

	// Placement decision with migration hysteresis, cell-locally: a
	// survivor's candidate and incumbent servers are both in this cell,
	// so the canonicalization and penalty arithmetic are exactly the flat
	// orchestrator's, over the cell's machines. With pins present the
	// canonical relabeling is skipped (relabeling a machine could move a
	// pinned tenant off its server), the stay-put run pins survivors to
	// their incumbents except where a pin overrides, and the penalty
	// charges only the moves the candidate makes beyond the ones the
	// pins force on both alternatives.
	profiles := o.cellProfiles[c]
	chosen := candidate.Assignment
	out.replaced = true
	if anySurvivor {
		if o.opts.MigrationCost == 0 {
			out.migrations = countMoved(candidate.Assignment, lpin)
		} else {
			canon := candidate.Assignment
			if !anyPin {
				canon = canonicalAssignment(candidate.Assignment, lpin, profiles)
			}
			moved := countMoved(canon, lpin)
			switch {
			case moved == 0 && arrivals == 0:
				// Steady state for this cell: skip the stay-put pricing
				// run, it would provably tie.
				chosen = canon
				out.replaced = false
			default:
				stayOpts := popts
				stayPin := lpin
				if anyPin {
					stayPin = make([]int, n)
					for k := range stayPin {
						stayPin[k] = lpin[k]
						if lcon[k] >= 0 {
							stayPin[k] = lcon[k]
						}
					}
				}
				stayOpts.Pinned = stayPin
				stSpan := span.Child("stay-put")
				stayOpts.Trace = stSpan
				stay, err := placement.Place(lpt, stayOpts)
				if err != nil {
					return nil, fmt.Errorf("fleet: stay-put placement: %w", err)
				}
				stSpan.End()
				out.stayCost = stay.TotalCost
				improvement := stay.TotalCost - candidate.TotalCost
				// Pin-forced moves happen under both alternatives, so
				// only the candidate's extra moves carry the penalty
				// (without pins the stay run moves nobody and extra is
				// simply moved).
				extra := moved - countMoved(stay.Assignment, lpin)
				penalty := 0.0 // no moves, no penalty (and no Inf·0 = NaN)
				if extra > 0 {
					penalty = o.opts.MigrationCost * float64(extra)
				}
				if improvement > penalty {
					chosen = canon
					out.migrations = moved
				} else {
					chosen = stay.Assignment
					out.migrations = countMoved(stay.Assignment, lpin)
					out.replaced = false
				}
			}
		}
	}

	servers := o.cells[c]
	perMachine := make([][]int, len(servers)) // local server → local tenant idxs
	for k := range lt {
		ls := chosen[k]
		out.assignment[lt[k].ID] = servers[ls]
		perMachine[ls] = append(perMachine[ls], k)
	}

	// Drive the cell's machines in server order; rollback on error is the
	// caller's fleet-wide snapshot.
	for ls, gs := range servers {
		idxs := perMachine[ls]
		if len(idxs) == 0 {
			continue
		}
		profile := profiles[ls]
		mach := o.machines[gs]
		inputs := make([]dynmgmt.PeriodInput, len(idxs))
		for k, li := range idxs {
			t := lt[li]
			est := t.EstFor(profile)
			if est == nil {
				return nil, fmt.Errorf("fleet: tenant %q has no estimator for profile %q", t.ID, profile)
			}
			// Fingerprint the raw estimator so the manager's advisor run
			// is cacheable; the estimate-cache wrapper also serves the
			// estimator's grid points from the cell's point cache (a nil
			// cache or an empty fingerprint returns est unwrapped).
			est = o.estimates[c].Estimator(profile, t.Fingerprint, est)
			server, measure := gs, t.Measure
			inputs[k] = dynmgmt.PeriodInput{
				ID:             t.ID,
				Gain:           t.Gain,
				Limit:          t.Limit,
				Estimator:      est,
				AvgEstPerQuery: t.AvgEstPerQuery,
				Measure: func(a core.Allocation) (float64, error) {
					return measure(server, a)
				},
			}
		}
		mspan := span.Child("advisor")
		mspan.SetInt("server", int64(gs))
		mspan.SetInt("tenants", int64(len(idxs)))
		mach.last = nil
		dynRep, err := mach.mgr.PeriodNoSnapshot(inputs)
		if err != nil {
			return nil, fmt.Errorf("fleet: machine %d period: %w", gs, err)
		}
		mspan.End()
		mrep := MachineReport{Dyn: dynRep, Result: mach.last}
		for k, li := range idxs {
			t := lt[li]
			mrep.TenantIDs = append(mrep.TenantIDs, t.ID)
			out.allocations[t.ID] = dynRep.Allocations[k]
			var deg float64
			if r := mach.last; r != nil && r.DedicatedCosts[k] > 0 {
				deg = r.Costs[k] / r.DedicatedCosts[k]
			}
			out.degradations[t.ID] = deg
			if deg > out.maxDeg {
				out.maxDeg = deg
			}
			if t.Limit >= 1 && deg > t.Limit+1e-9 {
				out.qosViolations++
			}
			if dynRep.Tenants[k].Rebuilt {
				out.rebuilds++
			}
		}
		if mach.last != nil {
			out.totalCost += mach.last.TotalCost
		}
		out.machines[gs] = mrep
	}
	if span != nil {
		span.SetBool("replaced", out.replaced)
		span.SetInt("migrations", int64(out.migrations))
		span.SetInt("rebuilds", int64(out.rebuilds))
		span.SetInt("score_cache_hits", o.scores[c].Hits()-hits0)
		span.End()
	}
	return out, nil
}
