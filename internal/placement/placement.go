// Package placement is the multi-machine layer above the single-machine
// virtualization design advisor: given a fleet of physical servers and a
// set of database tenants, it decides which tenants share which machine,
// and with what resource shares.
//
// The paper's advisor (§4) answers "how should one machine's CPU and
// memory be split among its N tenants?"; consolidation at scale also has
// to answer "which tenants should be co-located at all?". Placement
// composes the two: a greedy bin-packing enumerator assigns tenants to
// servers one at a time, scoring every candidate assignment with the
// per-machine advisor (core.Recommend) — so co-location decisions are
// driven by the same calibrated what-if cost estimates as share
// decisions, QoS limits and gain factors included.
//
// Servers need not be identical: Options.Profiles gives each server a
// hardware-profile key, and a tenant's cost on a server is estimated by
// the profile-specific estimator its EstFor hook resolves (the estimator
// embeds the profile's calibration, so a slower machine prices the same
// workload higher). Degradation limits are relative to a dedicated
// machine of the same profile as the one the tenant lands on.
//
// Options.Pinned holds tenants on fixed servers while the enumerator
// places only the rest — how the fleet orchestrator prices "keep everyone
// put, place only the arrivals" against a free re-placement when deciding
// whether migrations are worth their cost.
//
// Two optional refinements sit on top of the greedy enumerator.
// Options.Scores plugs in a machine-score cache (internal/score): every
// per-machine advisor run is then memoized by (profile, tenant
// fingerprints, QoS, search options), so re-scoring configurations seen
// before — by an earlier greedy step, the fleet's stay-put pricing run,
// or a previous monitoring period — is a map lookup. Options.LocalSearch
// bounds a post-greedy local-search phase: single-tenant moves and
// pairwise swaps, applied best-first and only while the fleet objective
// strictly improves, which un-sticks the greedy packer from the myopic
// choices it made before later tenants arrived.
//
// Like the single-machine enumerators, placement is engineered to be
// bit-identical across Options.Parallelism settings: tenants are ordered
// by a deterministic rule, candidate machines are scored concurrently but
// selected by a sequential replay with index tie-breaks, and the inner
// advisor runs are themselves parity-guaranteed. The score cache changes
// only how often the advisor actually runs, never a result.
package placement

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/score"
)

// Tenant is one database workload to place: its calibrated estimator plus
// the paper's per-tenant QoS settings.
type Tenant struct {
	// Name labels the tenant in errors and reports.
	Name string
	// Est estimates the tenant's workload cost under an allocation. On a
	// heterogeneous fleet it is the fallback for profiles EstFor does not
	// resolve.
	Est core.Estimator
	// EstFor resolves the tenant's estimator for one machine profile
	// (Options.Profiles): the same workload costed under that profile's
	// calibration. A nil hook, or a nil return, falls back to Est.
	EstFor func(profile string) core.Estimator
	// Gain is the benefit gain factor G_i (0 means 1; values in (0,1)
	// are rejected, matching core.Options validation).
	Gain float64
	// Limit is the degradation limit L_i vs a dedicated machine (0 means
	// unlimited; values in (0,1) are rejected).
	Limit float64
	// Fingerprint identifies the tenant's current workload for the score
	// cache (Options.Scores): it must be unique per tenant and change
	// whenever the workload (and hence the estimators) changes. Empty
	// means uncacheable — machine configurations containing this tenant
	// always run the advisor fresh.
	Fingerprint string
}

// Options configures a placement run.
type Options struct {
	// Servers is the number of identical physical machines (≥ 1); ignored
	// when Profiles is set.
	Servers int
	// Profiles optionally describes a heterogeneous fleet: one hardware-
	// profile key per server (the fleet size is len(Profiles)). Tenants'
	// per-profile estimators are resolved through their EstFor hook.
	// Servers sharing a key are interchangeable identical machines.
	Profiles []string
	// Pinned optionally fixes tenants to servers: Pinned[i] is tenant i's
	// server, or -1 to let the enumerator choose. Pinned tenants are
	// assigned first (in tenant order) and never moved; the greedy search
	// places only the free tenants around them.
	Pinned []int
	// Core is the template for every per-machine advisor run; its Gains
	// and Limits are overwritten per machine from the tenants placed
	// there, and its Parallelism/Ctx also drive the placement layer's own
	// candidate fan-out.
	Core core.Options
	// Scores optionally memoizes the per-machine advisor runs across
	// placements (and across a fleet's monitoring periods). Only machine
	// configurations whose every member carries a Fingerprint are cached;
	// a nil cache runs every scoring fresh. Results are bit-identical
	// either way.
	Scores *score.Cache
	// Estimates optionally memoizes individual what-if evaluations by
	// (machine profile, tenant fingerprint, allocation) across Place
	// calls and monitoring periods: a tenant's dedicated-machine cost and
	// the grid points its advisor runs visit are evaluated once per
	// workload version, not once per call. Only fingerprinted tenants use
	// it (the rest share a cache that lives for one call); estimates are
	// deterministic in the key, so results are bit-identical either way.
	Estimates *score.EstimateCache
	// LocalSearch bounds the post-greedy refinement rounds: each round
	// scores every single-tenant move and pairwise swap of free tenants
	// and applies the one that improves the fleet objective most, stopping
	// early when no strict improvement remains. 0 disables the phase.
	// Pinned tenants never move.
	LocalSearch int
	// Metrics optionally counts the enumerator's work (greedy steps,
	// local-search moves). The zero value reports nothing; counting never
	// changes a placement.
	Metrics Metrics
	// Trace optionally parents this run's phase spans ("greedy",
	// "local-search") for the period span tree. Nil traces nothing;
	// tracing never changes a placement.
	Trace *obs.Span
}

// Machine is one physical server's share of a finished placement.
type Machine struct {
	// Tenants are global tenant indexes in placement order; the i-th entry
	// corresponds to Result.Allocations[i].
	Tenants []int
	// Result is the machine's advisor recommendation (nil when the
	// machine received no tenants).
	Result *core.Result
}

// Placement is a completed tenant→server assignment.
type Placement struct {
	// Assignment maps tenant index → server index.
	Assignment []int
	// Machines holds the per-server plans.
	Machines []Machine
	// TotalCost is the gain-weighted objective summed over all machines.
	TotalCost float64
	// GreedyCost is the objective after greedy packing, before local
	// search (equal to TotalCost when Options.LocalSearch is 0 or no
	// improving move existed); GreedyCost − TotalCost is the local-search
	// improvement.
	GreedyCost float64
	// LocalSearchMoves counts the moves and swaps local search applied.
	LocalSearchMoves int
}

// AllocationOf returns the allocation recommended for a tenant, or nil
// for an index that names no placed tenant.
func (p *Placement) AllocationOf(tenant int) core.Allocation {
	if tenant < 0 || tenant >= len(p.Assignment) {
		return nil
	}
	s := p.Assignment[tenant]
	if s < 0 || s >= len(p.Machines) {
		return nil
	}
	m := p.Machines[s]
	if m.Result == nil {
		return nil
	}
	for slot, t := range m.Tenants {
		if t == tenant {
			return m.Result.Allocations[slot]
		}
	}
	return nil
}

// CostOf returns the estimated workload seconds for a tenant at its
// placed allocation, and the tenant's degradation vs a dedicated machine
// (of the same profile). An index that names no placed tenant returns
// (0, 0).
func (p *Placement) CostOf(tenant int) (seconds, degradation float64) {
	if tenant < 0 || tenant >= len(p.Assignment) {
		return 0, 0
	}
	s := p.Assignment[tenant]
	if s < 0 || s >= len(p.Machines) {
		return 0, 0
	}
	m := p.Machines[s]
	if m.Result == nil {
		return 0, 0
	}
	for slot, t := range m.Tenants {
		if t == tenant {
			seconds = m.Result.Costs[slot]
			if d := m.Result.DedicatedCosts[slot]; d > 0 {
				degradation = seconds / d
			}
			return seconds, degradation
		}
	}
	return 0, 0
}

// fleetShape is the resolved server topology of one Place call.
type fleetShape struct {
	// profiles is the per-server profile key ("" for identical fleets).
	profiles []string
	// distinct holds the distinct profile keys in first-appearance order;
	// profIdx maps server index → index into distinct.
	distinct []string
	profIdx  []int
}

func shapeOf(opts Options) (fleetShape, error) {
	if opts.Core.Resources > 2 {
		// Rejected before any estimate is memoized: core.AllocKey holds
		// at most two shares (core.Options.Normalize says the same).
		return fleetShape{}, fmt.Errorf("placement: %d resources; the advisor allocates CPU and memory (M ≤ 2)", opts.Core.Resources)
	}
	profiles := opts.Profiles
	if len(profiles) == 0 {
		if opts.Servers < 1 {
			return fleetShape{}, fmt.Errorf("placement: %d servers", opts.Servers)
		}
		profiles = make([]string, opts.Servers)
	}
	sh := fleetShape{profiles: profiles, profIdx: make([]int, len(profiles))}
	seen := make(map[string]int)
	for s, p := range profiles {
		d, ok := seen[p]
		if !ok {
			d = len(sh.distinct)
			seen[p] = d
			sh.distinct = append(sh.distinct, p)
		}
		sh.profIdx[s] = d
	}
	return sh, nil
}

// Place assigns every tenant to a server and splits each server's
// resources among its tenants.
//
// The enumerator is greedy bin packing in two nested phases. Tenants are
// first ordered by decreasing gain-weighted dedicated cost (expensive,
// hard-to-place workloads claim machines early; on a heterogeneous fleet
// the key is the tenant's cheapest dedicated machine; ties keep input
// order). Then, one tenant at a time, every machine with spare capacity
// is scored by re-running the per-machine advisor over its tenants plus
// the new one. Machines where every tenant's degradation limit holds are
// preferred outright — a cheap machine that breaks someone's QoS loses
// to a costlier one that honors it — and within the same feasibility
// class the tenant lands where the gain-weighted total rises least, ties
// toward the smaller server index. If no machine can satisfy the limits,
// the cheapest best-effort machine is used (limits may simply be
// unsatisfiable, as §7.5 shows for L_9 = 1.5). Only the first empty
// machine of each profile is scored — empty machines of one profile are
// interchangeable, so this is both the deterministic tie-break and a
// pruning of identical candidates.
//
// Tenants pinned through Options.Pinned are assigned to their servers
// before the greedy loop runs and are never reconsidered.
func Place(tenants []Tenant, opts Options) (*Placement, error) {
	return place(tenants, opts, nil)
}

// PlaceSeeded is Place starting from a known assignment instead of an
// empty fleet: tenants with seed[i] ≥ 0 begin on that server, tenants
// with -1 (arrivals) are placed by the greedy enumerator around them,
// and the local-search phase may then move ANY non-pinned tenant —
// seeded ones included. This is the fleet orchestrator's incremental
// mode: each period's search starts from the incumbent placement, so
// only arrivals and drift-induced improvements cost search work, instead
// of rebuilding the whole fleet greedily from scratch.
//
// The seed plays the same seating role as Options.Pinned (which still
// works and wins over the seed where both name a server) but, unlike a
// pin, does not survive into local search: a pin is a constraint, a seed
// is a starting point. With Options.LocalSearch 0 the result is exactly
// the seeded assignment plus greedily placed arrivals. The usual
// guarantees hold: deterministic, bit-identical across Parallelism, and
// local search only ever strictly improves on the seeded objective.
func PlaceSeeded(tenants []Tenant, opts Options, seed []int) (*Placement, error) {
	if seed == nil {
		return nil, errors.New("placement: PlaceSeeded needs a seed assignment")
	}
	if len(seed) != len(tenants) {
		return nil, fmt.Errorf("placement: %d seed entries for %d tenants", len(seed), len(tenants))
	}
	return place(tenants, opts, seed)
}

// place is the shared enumerator behind Place and PlaceSeeded: seed
// optionally pre-seats tenants for the greedy phase (merged with
// Options.Pinned, pins winning) without constraining local search.
func place(tenants []Tenant, opts Options, seed []int) (*Placement, error) {
	n := len(tenants)
	if n == 0 {
		return nil, errors.New("placement: no tenants")
	}
	for i, t := range tenants {
		// Mirror core's Options validation: QoS values in (0,1) are
		// always a caller bug, not a request for "no QoS".
		if t.Gain != 0 && t.Gain < 1 {
			return nil, fmt.Errorf("placement: tenant %d (%s) gain %v < 1", i, t.Name, t.Gain)
		}
		if t.Limit != 0 && t.Limit < 1 {
			return nil, fmt.Errorf("placement: tenant %d (%s) degradation limit %v < 1", i, t.Name, t.Limit)
		}
	}
	sh, err := shapeOf(opts)
	if err != nil {
		return nil, err
	}
	servers := len(sh.profiles)
	opts = withDefaults(opts)
	capacity := Capacity(opts)
	if n > servers*capacity {
		return nil, fmt.Errorf("placement: %d tenants exceed %d servers × %d slots (MinShare %.0f%%)",
			n, servers, capacity, opts.Core.MinShare*100)
	}
	if opts.Pinned != nil && len(opts.Pinned) != n {
		return nil, fmt.Errorf("placement: %d pinned entries for %d tenants", len(opts.Pinned), n)
	}
	// seats merges the permanent pins with the optional seed into the
	// greedy phase's pre-assignment (pins win where both name a server).
	seats := opts.Pinned
	if seed != nil {
		seats = make([]int, n)
		for i := range seats {
			seats[i] = seed[i]
			if opts.Pinned != nil && opts.Pinned[i] >= 0 {
				seats[i] = opts.Pinned[i]
			}
		}
	}

	sc := newScorer(tenants, sh, opts)

	// Dedicated-machine cost per free tenant per profile: the greedy
	// loop's ordering key (the same Cost(W_i, [1..1]) the degradation
	// constraint uses, so these estimates are re-served from the memo by
	// the advisor runs). Pre-seated tenants (pinned or seeded) never
	// enter the ordering, so their rows are skipped — the fleet's
	// stay-put pricing run pins every survivor and would otherwise pay a
	// full-workload estimate per survivor per profile for nothing. Fanned
	// over the worker pool; results land by index, so order does not
	// matter.
	full := make(core.Allocation, opts.Core.Resources)
	for j := range full {
		full[j] = 1
	}
	np := len(sh.distinct)
	free := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if seats == nil || seats[i] < 0 {
			free = append(free, i)
		}
	}
	// The greedy phase covers everything through the seating loop:
	// dedicated-cost ordering, pre-seating, and the candidate scans.
	gspan := opts.Trace.Child("greedy")
	greedySteps := 0
	dedicated := make([][]float64, n) // [tenant][distinct profile]; free rows only
	for _, i := range free {
		dedicated[i] = make([]float64, np)
	}
	dedShare := core.BatchShare(opts.Core.Parallelism, len(free)*np)
	if err := forEachTenant(opts, len(free)*np, func(task int) error {
		i, d := free[task/np], task%np
		est, err := sc.est(i, d)
		if err != nil {
			return err
		}
		sec, _, err := core.EstimateWith(opts.Core.Ctx, est, dedShare, full)
		if err != nil {
			return fmt.Errorf("placement: dedicated cost of %s on profile %q: %w",
				tenants[i].Name, sh.distinct[d], err)
		}
		dedicated[i][d] = sec
		return nil
	}); err != nil {
		return nil, err
	}
	orderKey := make([]float64, n) // gain × cheapest dedicated machine
	for _, i := range free {
		best := math.Inf(1)
		for _, sec := range dedicated[i] {
			if sec < best {
				best = sec
			}
		}
		orderKey[i] = gain(tenants[i]) * best
	}
	order := append([]int(nil), free...)
	sort.SliceStable(order, func(x, y int) bool { return orderKey[order[x]] > orderKey[order[y]] })

	assignment := make([]int, n)
	for i := range assignment {
		assignment[i] = -1
	}
	machines := make([]Machine, servers)
	totals := make([]float64, servers) // gain-weighted total per machine

	// Seat the pre-assigned tenants first (in tenant order) and score
	// each occupied machine once; the greedy loop then grows these
	// machines like any other.
	if seats != nil {
		for i, s := range seats {
			if s < 0 {
				continue
			}
			if s >= servers {
				return nil, fmt.Errorf("placement: tenant %d (%s) pinned to server %d of %d",
					i, tenants[i].Name, s, servers)
			}
			if len(machines[s].Tenants) >= capacity {
				return nil, fmt.Errorf("placement: server %d over capacity (%d slots) from pinned tenants",
					s, capacity)
			}
			machines[s].Tenants = append(machines[s].Tenants, i)
			assignment[i] = s
		}
		var occupied []int
		for s := range machines {
			if len(machines[s].Tenants) > 0 {
				occupied = append(occupied, s)
			}
		}
		pinShare := core.BatchShare(opts.Core.Parallelism, len(occupied))
		if err := forEachTenant(opts, len(occupied), func(k int) error {
			s := occupied[k]
			res, err := sc.recommend(machines[s].Tenants, sh.profIdx[s], pinShare)
			if err != nil {
				return fmt.Errorf("placement: scoring pinned server %d: %w", s, err)
			}
			machines[s].Result = res
			totals[s] = res.TotalCost
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// candidate is one scored "tenant t on machine s" what-if.
	type candidate struct {
		server   int
		members  []int
		res      *core.Result
		feasible bool // every member within its degradation limit
	}
	for _, t := range order {
		// Phase 1: enumerate candidate machines in server order, scoring
		// each concurrently. Empty machines beyond the first of each
		// profile are skipped: identical hardware makes them
		// interchangeable.
		var cands []candidate
		sawEmpty := make([]bool, np)
		for s := 0; s < servers; s++ {
			if len(machines[s].Tenants) >= capacity {
				continue
			}
			if len(machines[s].Tenants) == 0 {
				if sawEmpty[sh.profIdx[s]] {
					continue
				}
				sawEmpty[sh.profIdx[s]] = true
			}
			cands = append(cands, candidate{server: s})
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("placement: no machine can hold tenant %s", tenants[t].Name)
		}
		// Each concurrent candidate scoring gets an equal slice of the
		// worker budget for its inner advisor run, so nesting divides the
		// pool rather than multiplying it; inner results are bit-identical
		// at any worker count, so this cannot change the placement.
		candShare := core.BatchShare(opts.Core.Parallelism, len(cands))
		if err := forEachTenant(opts, len(cands), func(c int) error {
			s := cands[c].server
			cands[c].members = append(append([]int(nil), machines[s].Tenants...), t)
			res, err := sc.recommend(cands[c].members, sh.profIdx[s], candShare)
			if err != nil {
				return fmt.Errorf("placement: scoring %s on server %d: %w", tenants[t].Name, s, err)
			}
			cands[c].res = res
			cands[c].feasible = WithinLimits(res, tenants, cands[c].members)
			return nil
		}); err != nil {
			return nil, err
		}
		opts.Metrics.GreedySteps.Add(uint64(len(cands)))
		greedySteps += len(cands)
		// Phase 2: sequential replay — limit-feasible machines beat
		// infeasible ones, then the machine whose total rises least wins;
		// ties toward the smaller server index (candidate order is server
		// order, and only strict improvement switches).
		best := -1
		bestDelta := math.Inf(1)
		bestFeasible := false
		for c := range cands {
			delta := cands[c].res.TotalCost - totals[cands[c].server]
			switch {
			case cands[c].feasible && !bestFeasible:
				best, bestDelta, bestFeasible = c, delta, true
			case cands[c].feasible == bestFeasible && delta < bestDelta:
				best, bestDelta = c, delta
			}
		}
		s := cands[best].server
		assignment[t] = s
		machines[s].Tenants = append(machines[s].Tenants, t)
		machines[s].Result = cands[best].res
		totals[s] = cands[best].res.TotalCost
	}

	gspan.SetInt("steps", int64(greedySteps))
	gspan.End()

	greedyCost := 0.0
	for s := range totals {
		greedyCost += totals[s]
	}
	lsMoves := 0
	if opts.LocalSearch > 0 {
		lspan := opts.Trace.Child("local-search")
		lsMoves, err = sc.localSearch(assignment, machines, totals, capacity)
		if err != nil {
			return nil, err
		}
		lspan.SetInt("moves", int64(lsMoves))
		lspan.End()
		opts.Metrics.LocalSearchMoves.Add(uint64(lsMoves))
	}

	p := &Placement{Assignment: assignment, Machines: machines,
		GreedyCost: greedyCost, LocalSearchMoves: lsMoves}
	for s := range machines {
		p.TotalCost += totals[s]
	}
	return p, nil
}

// withDefaults fills the core-option defaults every entry point of this
// package relies on.
func withDefaults(opts Options) Options {
	if opts.Core.Delta <= 0 {
		opts.Core.Delta = 0.05
	}
	if opts.Core.MinShare <= 0 {
		opts.Core.MinShare = opts.Core.Delta
	}
	if opts.Core.Parallelism <= 0 {
		opts.Core.Parallelism = 1
	}
	if opts.Core.Ctx == nil {
		opts.Core.Ctx = context.Background()
	}
	if opts.Core.Resources <= 0 {
		opts.Core.Resources = 2
	}
	return opts
}

// Capacity returns how many tenants one machine can hold: each keeps a
// MinShare floor of every resource, so at most ⌊1/MinShare⌋ fit.
func Capacity(opts Options) int {
	opts = withDefaults(opts)
	return int((1 + 1e-9) / opts.Core.MinShare)
}

// AdmitSeat returns the smallest-indexed server that can host the
// arrival tenant beside its pinned residents with every member's
// degradation limit holding, or -1 when no machine can. The surviving
// tenants are held on their current machines by Options.Pinned (the
// arrival's own entry must be -1), and each machine with spare capacity
// is scored over its residents plus the arrival — exactly the
// configurations a stay-put placement run would price, so with
// Options.Scores set the subsequent Place call reuses these runs.
// Fleet-level QoS admission control is built on this: an arrival no
// machine can seat is rejected rather than placed best-effort.
//
// Admission is checked against the pinned residents only: other
// unplaced tenants are not considered, and an already-violating resident
// makes its machine inadmissible for any arrival. The returned seat is
// how batch admission pins an admitted arrival before checking the next
// one (greedy seat-and-check): two arrivals that each fit alone but not
// together are then correctly split instead of both slipping through the
// incumbent-only check. (Among a profile class's empty interchangeable
// machines only the first is probed, so the seat is the deterministic
// canonical choice, not always the literal smallest index.)
func AdmitSeat(tenants []Tenant, opts Options, arrival int) (int, error) {
	if arrival < 0 || arrival >= len(tenants) {
		return -1, fmt.Errorf("placement: arrival index %d of %d tenants", arrival, len(tenants))
	}
	sh, err := shapeOf(opts)
	if err != nil {
		return -1, err
	}
	servers := len(sh.profiles)
	opts = withDefaults(opts)
	capacity := Capacity(opts)
	if opts.Pinned != nil && len(opts.Pinned) != len(tenants) {
		return -1, fmt.Errorf("placement: %d pinned entries for %d tenants", len(opts.Pinned), len(tenants))
	}
	residents := make([][]int, servers)
	if opts.Pinned != nil {
		if opts.Pinned[arrival] >= 0 {
			return -1, fmt.Errorf("placement: arrival %d is pinned to server %d", arrival, opts.Pinned[arrival])
		}
		for i, s := range opts.Pinned {
			if s < 0 {
				continue
			}
			if s >= servers {
				return -1, fmt.Errorf("placement: tenant %d pinned to server %d of %d", i, s, servers)
			}
			residents[s] = append(residents[s], i)
		}
	}
	sc := newScorer(tenants, sh, opts)
	sawEmpty := make([]bool, len(sh.distinct))
	for s := 0; s < servers; s++ {
		if len(residents[s]) >= capacity {
			continue
		}
		if len(residents[s]) == 0 {
			d := sh.profIdx[s]
			if sawEmpty[d] {
				continue
			}
			sawEmpty[d] = true
		}
		members := appendMember(residents[s], arrival)
		// A machine whose every member (arrival included) is unlimited
		// can host anything a free slot allows — no scoring needed.
		limited := false
		for _, m := range members {
			if !math.IsInf(limit(tenants[m]), 1) {
				limited = true
				break
			}
		}
		if !limited {
			return s, nil
		}
		res, err := sc.recommend(members, sh.profIdx[s], opts.Core.Parallelism)
		if err != nil {
			return -1, fmt.Errorf("placement: admission scoring server %d: %w", s, err)
		}
		if WithinLimits(res, tenants, members) {
			return s, nil
		}
	}
	return -1, nil
}

// ScoreMachine runs the per-machine advisor over one proposed machine
// configuration: members index tenants, and server selects the machine
// (hence its hardware profile). It is the single-machine what-if behind
// the fleet's cross-cell rebalancer — "what would this machine cost
// with/without this tenant?" — scored with the same estimator wrapping,
// QoS shaping, and score-cache keying as every other advisor run in
// this package, so repeated questions are cache hits and the answers
// are comparable with placement objectives.
func ScoreMachine(tenants []Tenant, opts Options, server int, members []int) (*core.Result, error) {
	if len(members) == 0 {
		return nil, errors.New("placement: ScoreMachine needs at least one member")
	}
	sh, err := shapeOf(opts)
	if err != nil {
		return nil, err
	}
	if server < 0 || server >= len(sh.profiles) {
		return nil, fmt.Errorf("placement: server %d of %d", server, len(sh.profiles))
	}
	for _, m := range members {
		if m < 0 || m >= len(tenants) {
			return nil, fmt.Errorf("placement: member index %d of %d tenants", m, len(tenants))
		}
	}
	opts = withDefaults(opts)
	sc := newScorer(tenants, sh, opts)
	return sc.recommend(members, sh.profIdx[server], opts.Core.Parallelism)
}

// scorer carries one Place (or AdmitSeat) call's machine-scoring state:
// the tenants, their per-profile memoized estimators, the cache
// fingerprints, and the resolved fleet shape.
type scorer struct {
	tenants []Tenant
	sh      fleetShape
	opts    Options

	// mu guards the lazily-built estimator table; estimators are
	// constructed on first use, so an admission check for one arrival
	// never invokes EstFor for tenants it does not score.
	mu   sync.Mutex
	ests [][]core.Estimator // [tenant][distinct profile], nil until used
	// local memoizes the estimates of tenants the persistent cache
	// cannot key (no fingerprint, or no Options.Estimates) for this call
	// only, keyed by the tenant's index in the call; created on first
	// use.
	local *score.EstimateCache
}

func newScorer(tenants []Tenant, sh fleetShape, opts Options) *scorer {
	return &scorer{tenants: tenants, sh: sh, opts: opts,
		ests: make([][]core.Estimator, len(tenants))}
}

// est returns tenant t's estimator for distinct profile d, wrapping it in
// an estimate cache on first use: one placement runs the per-machine
// advisor many times over the same estimators, and scoring tenant k on
// machine s re-visits grid points costed by earlier candidate runs.
func (sc *scorer) est(t, d int) (core.Estimator, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.ests[t] == nil {
		sc.ests[t] = make([]core.Estimator, len(sc.sh.distinct))
	}
	if e := sc.ests[t][d]; e != nil {
		return e, nil
	}
	p := sc.sh.distinct[d]
	base := sc.tenants[t].Est
	if sc.tenants[t].EstFor != nil {
		if e := sc.tenants[t].EstFor(p); e != nil {
			base = e
		}
	}
	if base == nil {
		return nil, fmt.Errorf("placement: tenant %d (%s) has no estimator for profile %q",
			t, sc.tenants[t].Name, p)
	}
	// A fingerprinted tenant with a persistent estimate cache shares its
	// point estimates across Place calls and monitoring periods; its
	// fingerprint changes with the workload, so reuse is exactly as safe
	// as the per-call cache. Everyone else memoizes within this call
	// only, under its tenant index. The index key never reaches a shared
	// cache: recommend decides score-cache eligibility from
	// Tenant.Fingerprint, not from the wrapper's fingerprint.
	var me core.Estimator
	if fp := sc.tenants[t].Fingerprint; fp != "" && sc.opts.Estimates != nil {
		me = sc.opts.Estimates.Estimator(p, fp, base)
	} else {
		if sc.local == nil {
			sc.local = score.NewEstimates()
		}
		me = sc.local.Estimator(p, strconv.Itoa(t), base)
	}
	sc.ests[t][d] = me
	return me, nil
}

// recommend runs the per-machine advisor over the given tenant subset on
// a machine of the given profile, shaping Gains and Limits from the
// members' QoS settings; workers bounds the inner search's parallelism
// (its slice of the shared pool). When a score cache is configured and
// every member carries a fingerprint, the run is served through the
// cache — bit-identical to a fresh run, by the enumerator's determinism.
func (sc *scorer) recommend(members []int, profile int, workers int) (*core.Result, error) {
	co := sc.opts.Core
	co.Parallelism = workers
	co.Gains = make([]float64, len(members))
	co.Limits = make([]float64, len(members))
	memberEsts := make([]core.Estimator, len(members))
	for i, t := range members {
		co.Gains[i] = gain(sc.tenants[t])
		co.Limits[i] = limit(sc.tenants[t])
		est, err := sc.est(t, profile)
		if err != nil {
			return nil, err
		}
		memberEsts[i] = est
	}
	if sc.opts.Scores != nil {
		fps := make([]string, len(members))
		cacheable := true
		for i, t := range members {
			fps[i] = sc.tenants[t].Fingerprint
			if fps[i] == "" {
				cacheable = false
				break
			}
		}
		if cacheable {
			return sc.opts.Scores.Recommend(sc.sh.distinct[profile], fps, memberEsts, co)
		}
	}
	return core.Recommend(memberEsts, co)
}

// WithinLimits reports whether every member of a scored machine meets
// its degradation limit — the predicate greedy packing, admission and
// local search apply (it lives in violators), exported so the fleet
// rebalancer can check a priced destination run for feasibility instead
// of paying a second scoring. members indexes into tenants, parallel to
// the result's slots.
func WithinLimits(res *core.Result, tenants []Tenant, members []int) bool {
	return len(violators(res, tenants, members)) == 0
}

func gain(t Tenant) float64 {
	if t.Gain >= 1 {
		return t.Gain
	}
	return 1
}

func limit(t Tenant) float64 {
	if t.Limit >= 1 {
		return t.Limit
	}
	return math.Inf(1)
}

// forEachTenant fans fn over the placement layer's own worker pool.
func forEachTenant(opts Options, n int, fn func(int) error) error {
	return core.ForEach(opts.Core.Ctx, opts.Core.Parallelism, n, fn)
}
