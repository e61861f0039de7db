// Package fleet orchestrates a cluster of database servers through time:
// the layer where the paper's dynamic configuration management (§6,
// internal/dynmgmt) and the multi-machine placement advisor
// (internal/placement) meet.
//
// Each monitoring period the orchestrator receives the fleet's current
// tenants — IDs may appear (arrivals) or disappear (departures), and a
// surviving tenant's workload may have drifted — and decides two things:
//
//  1. Who lives where. A candidate re-placement is computed with
//     placement.Place over the tenants' current workloads, and priced
//     against the "stay put" alternative (the same placement run with
//     every surviving tenant pinned to its current server, so only the
//     arrivals are placed). The candidate is adopted only when its
//     estimated improvement beats a configurable migration penalty per
//     moved tenant — hysteresis that keeps the fleet from thrashing
//     tenants between machines for marginal gains, in the spirit of
//     autonomous cloud placement services. Moving a tenant also discards
//     its refined cost model (the model was calibrated against the old
//     machine's hardware), which is exactly the hidden cost the penalty
//     prices in.
//
//  2. How each machine splits its resources. One dynmgmt.Manager per
//     machine classifies its tenants' workload changes, re-runs the
//     advisor over refined models or fresh optimizer estimates, measures,
//     and refines — the §6 loop, with the fleet's placement decision
//     feeding each manager ID-keyed PeriodInputs so tenants carry their
//     QoS (and lose their per-machine state) as they move.
//
// Servers are heterogeneous: Options.Profiles names each machine's
// hardware profile, and tenants resolve per-profile estimators through
// EstFor, so both placement and per-machine tuning price a workload
// differently on different hardware generations.
//
// Scoring is incremental: the orchestrator owns a machine-score cache
// (internal/score) shared by the candidate placement, the stay-put
// pricing run, placement's local search, and every machine's per-period
// advisor run. Machine configurations are keyed by hardware profile,
// tenant workload fingerprints (or refined-model versions), QoS, and
// search options, so a machine whose membership and workloads did not
// change between periods is re-scored by a map lookup — a steady-state
// period performs zero fresh advisor runs. Options.AdmitQoS adds
// fleet-level admission control (arrivals that fit nowhere within their
// degradation limit are rejected, not placed best-effort), and
// Options.LocalSearch refines every placement run past greedy packing.
//
// Like every enumerator below it, the orchestrator is bit-identical
// across Options.Core.Parallelism settings: machines run in index order,
// placement and the per-machine advisors are parity-guaranteed, and all
// report aggregation is sequential. The score cache changes only how
// often the advisor runs, never a report.
package fleet

import (
	"errors"
	"fmt"

	"time"

	"repro/internal/core"
	"repro/internal/dynmgmt"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/score"
)

// Tenant is one database workload's monitoring data for one period.
type Tenant struct {
	// ID identifies the tenant across periods (required, unique per
	// period). A new ID is an arrival; an ID missing from a period's
	// inputs is a departure and its state is dropped.
	ID string
	// Gain and Limit are the tenant's §3 QoS settings (0 means default);
	// they travel with the tenant across machines.
	Gain  float64
	Limit float64
	// EstFor resolves the tenant's current-workload what-if estimator on
	// a machine profile (required; must return non-nil for every profile
	// in Options.Profiles).
	EstFor func(profile string) core.Estimator
	// AvgEstPerQuery is the §6.1 change-detection metric for the current
	// workload, measured at a fixed reference allocation and profile so
	// that period-over-period changes reflect the workload, not the
	// observation point.
	AvgEstPerQuery float64
	// Fingerprint identifies the tenant's current workload for the
	// machine-score cache: unique per tenant, changed whenever the
	// workload (and hence every EstFor estimator) changes. Empty makes
	// the tenant uncacheable — machine configurations containing it are
	// always scored fresh, never wrongly reused — and its cell
	// permanently dirty under delta periods (an unfingerprinted workload
	// gives change detection nothing to compare, so the cell is
	// recomputed every period rather than ever replayed).
	Fingerprint string
	// Measure returns the actual cost of the tenant's current workload on
	// the given server under an allocation (required).
	Measure func(server int, a core.Allocation) (float64, error)
	// Pin optionally forces the tenant onto one server: 0 means unpinned,
	// any other value pins to server Pin-1 (1-based so the zero value
	// stays "no pin"). A pinned tenant bypasses QoS admission control, is
	// routed to the pin's cell (crossing cells if its incumbent lives
	// elsewhere — the one sanctioned kind of caller-driven cross-cell
	// migration, counted in PeriodReport.Migrations), and is held on the
	// pinned server by both the candidate and the stay-put placement
	// runs. Pin changes dirty the affected cells under delta periods.
	Pin int
}

// Options configures an orchestrator.
type Options struct {
	// Profiles names each server's hardware profile; len(Profiles) is the
	// fleet size. Servers sharing a profile are identical machines.
	Profiles []string
	// MigrationCost is the penalty (in gain-weighted estimated seconds)
	// charged per moved tenant when deciding whether to adopt a
	// re-placement. 0 means migrations are free: the fleet adopts the
	// fresh placement every period. Higher values add hysteresis; +Inf
	// freezes the initial placement.
	MigrationCost float64
	// Core is the advisor-option template for placement and every
	// per-machine manager; its Parallelism/Ctx bound all concurrent
	// estimation. Gains/Limits must be unset — QoS rides on the tenants.
	Core core.Options
	// LocalSearch bounds the post-greedy local-search refinement of every
	// placement run this orchestrator performs (see
	// placement.Options.LocalSearch); 0 disables it. With local search on,
	// a cell's candidate placement is seeded from the incumbent assignment
	// whenever the cell has survivors: survivors start where they are,
	// arrivals are placed greedily, and local search refines the whole
	// cell, so steady periods cost almost no search work and drifted ones
	// only re-examine what local search touches. Without local search a
	// seeded candidate could never move a survivor, so the candidate is
	// packed greedily from scratch and MigrationCost decides what moves.
	LocalSearch int
	// AdmitQoS enables fleet-level admission control: an arriving tenant
	// is rejected for the period — reported in PeriodReport.Rejected,
	// with a reason in PeriodReport.RejectedReasons — when every slot is
	// taken, or when no machine can seat it beside its incumbent
	// residents with every member's degradation limit holding (the
	// arrival's own AND the residents'), rather than placed best-effort
	// over someone's QoS. Rejected tenants may simply be resubmitted next
	// period. Simultaneous arrivals are admitted jointly by a greedy
	// seat-and-check in input order: each admitted arrival is tentatively
	// seated on its admitting machine before the next arrival is checked,
	// so two arrivals that each fit alone but jointly overflow a machine
	// are split deterministically — the first admitted, the second
	// rejected with RejectBatchConflict.
	AdmitQoS bool
	// DisableScoreCache turns off the orchestrator's machine-score cache
	// (and the estimate cache riding with it). The cache memoizes
	// per-machine advisor runs across greedy candidates, local search,
	// the stay-put pricing run, and — most importantly — across periods,
	// so unchanged machines are never re-scored; results are
	// bit-identical with it on or off. The uncached orchestrator is the
	// reference the cache-parity suites and the fleet-cache figure
	// compare against.
	DisableScoreCache bool
	// CacheSweep bounds both caches (0 = unbounded): entries untouched
	// for this many consecutive periods are dropped. Each recomputing
	// cell advances one cache generation and sweeps its shards on commit,
	// so configurations the fleet stopped visiting — departed tenants,
	// drifted-away workloads — age out, while the working set it keeps
	// touching stays cached and steady periods stay at zero fresh
	// advisor runs. Eviction can cost re-runs, never change a report.
	CacheSweep int
	// Cells bounds a placement cell to at most this many machines
	// (0 disables partitioning — the whole fleet is one cell, the flat
	// orchestrator). On larger fleets the servers are partitioned as
	// partition.go describes, each cell gets its own score/estimate
	// cache shard, and every period routes tenants to cells (survivors
	// stay with their incumbent's cell; arrivals go to the cell with the
	// most headroom) and runs the cells' placement + manager work
	// concurrently over the Core.Parallelism worker pool — see cells.go.
	// Reports stay bit-identical across Parallelism because each cell is
	// deterministic and outcomes merge in fixed cell order; a fleet of at
	// most Cells machines behaves bit-identically to Cells == 0. With
	// more than one cell, Tenant.EstFor and Tenant.Measure must tolerate
	// concurrent calls for tenants of different cells.
	Cells int
	// RebalanceBudget bounds cross-cell rebalancing: after each period's
	// dirty cells settle, a draining pass ranks every (hot cell, cold
	// cell) pressure gap — mean machine load above vs below — and
	// migrates tenants down the largest gaps, at most this many adopted
	// moves per period, each priced with the same MigrationCost rule as
	// within-cell migrations (adopted only when the estimated improvement
	// strictly beats the penalty). A pair whose move fails to seat or to
	// pay is set aside and the pass continues down the ranking (bounded
	// by the same budget), so one stubborn hot spot no longer starves the
	// others — a budget of 1 reproduces the classic single-move
	// hottest→coldest pass exactly. Moves are committed into the
	// assignment and take effect next period, dirtying only the cells
	// involved; they are reported in
	// PeriodReport.RebalanceMoves/Rebalanced, not Migrations. 0 (the
	// default) disables rebalancing: tenants then never leave their cell,
	// reproducing the pre-rebalance orchestrator exactly.
	RebalanceBudget int
	// AutoTuneCells closes the observe→tune loop over the partition
	// itself (requires Cells > 0): a controller reads each cell's
	// observed compute latency — the same per-cell durations the period
	// span tree and the latency histogram record — and at every period's
	// commit splits cells whose p95 sits above CellP95Target and merges
	// pairs that both sit below a quarter of it (the band's floor),
	// through the same incremental partition-edit path AddServer and
	// RemoveServer use: only the touched cells are dirtied, untouched
	// cells keep replaying bit-identically, and no tenant changes servers
	// (a split or merge re-scopes which machines place together, nothing
	// else). Off (the default), the partition changes only through
	// explicit topology edits, reproducing the fixed-cells orchestrator
	// exactly. See autotune.go.
	AutoTuneCells bool
	// CellP95Target is the upper edge, in seconds, of the auto-tuner's
	// per-cell compute-latency band (0 means the 50ms default). The
	// controller aims each cell's observed p95 into [target/4, target]:
	// above it a cell splits, below the floor cold pairs merge back —
	// the floor's hysteresis gap keeps a merged cell from immediately
	// re-splitting.
	CellP95Target float64
	// Metrics optionally attaches an observability registry: the
	// orchestrator registers its metric families (period latency, dirty/
	// replayed cells, migrations, rejections by reason, cache and
	// refinement counters — see metrics.go) and feeds them every period.
	// Nil (the default) turns observability off with zero allocations on
	// the hot path. Metrics are strictly passive: reports are
	// bit-identical with a registry attached or not, at any Parallelism.
	// Fixed after New — SetOptions keeps the original registry.
	Metrics *obs.Registry
	// TraceSink optionally receives each successful period's span tree
	// (period → per-cell compute/replay → placement greedy/local-search
	// → per-machine advisor runs, plus the rebalance pass), called
	// synchronously at the end of Period. Nil disables tracing with zero
	// allocations. Durations live only in the spans — tracing never
	// feeds a decision, so reports stay bit-identical with it on or off.
	TraceSink func(*obs.Span)
}

// RejectReason classifies why admission control turned an arrival away.
type RejectReason int

const (
	// RejectCapacity: every machine slot in the fleet was taken.
	RejectCapacity RejectReason = iota + 1
	// RejectQoS: no machine can seat the arrival beside its incumbent
	// residents within every member's degradation limit.
	RejectQoS
	// RejectBatchConflict: the arrival fits beside the incumbents alone,
	// but not together with arrivals admitted earlier in this period's
	// batch — resubmitting it next period will likely succeed if the
	// conflicting arrivals departed or spread out.
	RejectBatchConflict
)

// String names the reason for reports and logs.
func (r RejectReason) String() string {
	switch r {
	case RejectCapacity:
		return "capacity"
	case RejectQoS:
		return "qos"
	case RejectBatchConflict:
		return "batch-conflict"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// MachineReport is one server's slice of a period.
type MachineReport struct {
	// TenantIDs are the machine's tenants in this period's input order;
	// the i-th entry corresponds to Dyn.Allocations[i] / Dyn.Tenants[i].
	TenantIDs []string
	// Dyn is the machine's dynamic-management outcome.
	Dyn *dynmgmt.PeriodReport
	// Result is the machine's advisor run (captured through the Recommend
	// hook); Costs/DedicatedCosts are indexed like TenantIDs.
	Result *core.Result
}

// PeriodReport aggregates one fleet period.
type PeriodReport struct {
	// Period counts from 1.
	Period int
	// Assignment maps tenant ID → server index after this period.
	Assignment map[string]int
	// Allocations and Degradations map tenant ID → the deployed
	// allocation and the estimated degradation vs a dedicated machine of
	// the tenant's server profile.
	Allocations  map[string]core.Allocation
	Degradations map[string]float64
	// Arrivals and Departures count tenant-set changes vs the previous
	// period; Migrations counts surviving tenants that changed servers.
	Arrivals, Departures, Migrations int
	// Replaced reports whether the candidate re-placement was adopted
	// (always true on the first period, and whenever MigrationCost is 0).
	// On a multi-cell fleet (Options.Cells) each cell decides
	// independently and Replaced is true when any cell adopted its
	// candidate.
	Replaced bool
	// CandidateCost and StayCost are the gain-weighted placement
	// objectives of the free re-placement and the pinned stay-put
	// alternative. They are reported equal when the stay-put run was not
	// priced: on the first period (nothing to pin), at MigrationCost 0
	// (the candidate is adopted unconditionally), and in steady state
	// (no moves and no arrivals — the runs would provably tie).
	CandidateCost, StayCost float64
	// TotalCost sums the machines' gain-weighted advisor objectives —
	// the fleet's estimated cost at the deployed allocations, from the
	// managers' (refined-model-aware) runs.
	TotalCost float64
	// LocalSearchImprovement is how much the candidate placement's
	// local-search phase lowered its objective below plain greedy packing
	// (0 when Options.LocalSearch is 0 or no improving change existed).
	LocalSearchImprovement float64
	// Rejected lists tenants turned away by QoS admission control this
	// period (Options.AdmitQoS), in input order. Rejected tenants are not
	// placed, not managed, and not counted as Arrivals.
	// RejectedReasons[i] says why Rejected[i] was turned away.
	Rejected        []string
	RejectedReasons []RejectReason
	// MaxDegradation is the worst per-tenant degradation;  QoSViolations
	// counts tenants past their limit (a best-effort placement may exceed
	// unsatisfiable limits, as §7.5 shows).
	MaxDegradation float64
	QoSViolations  int
	// Rebuilds counts per-tenant cost-model rebuilds this period (§6.2
	// discards: major changes, migration resets, diverging refinements).
	Rebuilds int
	// Machines holds the per-server detail.
	Machines []MachineReport
	// DirtyCells lists the cells that actually recomputed this period
	// (ascending); ReplayedCells counts the clean cells whose previous
	// outcome was replayed instead. Under delta periods a steady period
	// has no dirty cells and a one-tenant drift dirties one; after
	// SetOptions every occupied cell is dirty. These two fields describe
	// work done, not results — every other report field is bit-identical
	// whether a cell recomputed or replayed.
	DirtyCells    []int
	ReplayedCells int
	// RebalanceMoves counts cross-cell migrations adopted by this
	// period's rebalancing pass (Options.RebalanceBudget); Rebalanced lists
	// the moved tenants' IDs in move order. The moves are committed into
	// the assignment and take effect next period — this period's
	// Assignment still shows the pre-move servers — and are not counted
	// in Migrations.
	RebalanceMoves int
	Rebalanced     []string
	// CellSplits lists the cells the auto-tuner split at this period's
	// commit, ascending (each listed cell kept half its machines; the
	// other half founded a new cell); CellMerges lists the adopted
	// merges as [into, from] pairs. Both empty unless
	// Options.AutoTuneCells. The edits re-scope which machines place
	// together without moving any tenant between servers, and take
	// effect next period by dirtying exactly the touched cells.
	CellSplits []int
	CellMerges [][2]int
}

// machine is one server's persistent state: its dynamic-management
// manager and the advisor result captured from the manager's last run.
// scores is the cell cache shard the Recommend hook serves through —
// a mutable field rather than a closure capture so a partition edit
// (auto-tune split/merge) can re-point a machine at its new cell's
// shard without discarding the manager's refined-model state.
type machine struct {
	mgr    *dynmgmt.Manager
	last   *core.Result
	scores *score.Cache
}

func newMachine(opts Options, profile string, scores *score.Cache, met dynmgmt.Metrics) *machine {
	m := &machine{mgr: dynmgmt.NewManager(opts.Core), scores: scores}
	m.mgr.Metrics = met
	// The hook captures each period's advisor result for the fleet report
	// and serves the run through the machine-score cache when every
	// estimator in the basis carries a fingerprint — refined models
	// fingerprint themselves (lineage + observation count), and the
	// orchestrator wraps the tenants' raw estimators. In steady state the
	// basis is unchanged converged models, so the period's advisor run is
	// a cache hit: zero fresh core.Recommend work on unchanged machines.
	// Allocation decisions are unchanged either way (a nil cache, or any
	// unfingerprinted estimator, falls back to a fresh core.Recommend).
	m.mgr.Recommend = func(ests []core.Estimator, o core.Options) (*core.Result, error) {
		res, err := m.scores.RecommendEsts(profile, ests, o)
		if err == nil {
			m.last = res
		}
		return res, err
	}
	return m
}

// Orchestrator runs a fleet of servers through monitoring periods.
type Orchestrator struct {
	opts       Options
	machines   []*machine
	assignment map[string]int
	period     int
	// The cell partition (see Options.Cells and cells.go): cells lists
	// each cell's global server indexes, cellOf maps a server to its
	// cell, localIdx to its index within that cell, and cellProfiles
	// holds each cell's profile slice. With Cells == 0 there is exactly
	// one cell covering the fleet and local indexes equal global ones.
	cells        [][]int
	cellOf       []int
	localIdx     []int
	cellProfiles [][]string
	// scores[c] memoizes cell c's per-machine advisor runs across
	// candidates, the stay-put pricing run, local search, the
	// per-machine managers, and periods (entries nil when
	// Options.DisableScoreCache). estimates[c] memoizes point what-if
	// evaluations below it, under the same lifecycle. Cells never share
	// machines, so the shards never share keys — sharding only splits
	// the sweeps and the lock traffic.
	scores    []*score.Cache
	estimates []*score.EstimateCache
	// delta[c] is cell c's delta-period state (see delta.go): the last
	// computed outcome, the tenant input sequence it was computed for,
	// and whether that outcome is a proven fixed point (settled). lastSig
	// records each placed tenant's input signature from the previous
	// period, the drift detector. Neither is snapshotted: a restored cell
	// has no stored outcome, so it recomputes in the first resumed period,
	// which rewrites both before anything reads them.
	delta   []cellDelta
	lastSig map[string]tenantSig
	// lat[c] is cell c's compute-latency feedback (see autotune.go): a
	// bounded window of recent periodCell wall-clock durations feeding
	// the auto-tuner's p95, and an EWMA feeding the work-stealing
	// dispatch order. Timing influences only scheduling ORDER and
	// partition edits, never the result of any fixed partition — reports
	// stay bit-identical at any Parallelism.
	lat []cellLatency
	// scratch holds the pooled per-period working buffers (see delta.go);
	// Period is never re-entered concurrently, so one set suffices.
	scratch periodScratch
	// met holds the observability handles registered on Options.Metrics
	// (the zero value — no registry — discards everything).
	met fleetMetrics
}

// checkOptions validates the option fields — shared between New,
// Restore and SetOptions.
func checkOptions(opts Options) error {
	if len(opts.Profiles) == 0 {
		return errors.New("fleet: no servers (Options.Profiles is empty)")
	}
	if opts.Cells < 0 {
		return fmt.Errorf("fleet: negative cell size %d", opts.Cells)
	}
	if opts.MigrationCost < 0 {
		return fmt.Errorf("fleet: negative migration cost %v", opts.MigrationCost)
	}
	if opts.Core.Gains != nil || opts.Core.Limits != nil {
		return errors.New("fleet: QoS rides on each Tenant, not on Options.Core.Gains/Limits")
	}
	if opts.CacheSweep < 0 {
		return fmt.Errorf("fleet: negative cache sweep %d", opts.CacheSweep)
	}
	if opts.RebalanceBudget < 0 {
		return fmt.Errorf("fleet: negative rebalance budget %d", opts.RebalanceBudget)
	}
	if opts.CellP95Target < 0 {
		return fmt.Errorf("fleet: negative cell p95 target %v", opts.CellP95Target)
	}
	if opts.AutoTuneCells && opts.Cells <= 0 {
		return errors.New("fleet: AutoTuneCells requires a cell-size bound (Options.Cells > 0)")
	}
	return nil
}

// New creates an orchestrator for the given fleet topology. Servers may
// be added and drained servers removed between periods (AddServer,
// RemoveServer); existing servers keep their cell assignments.
func New(opts Options) (*Orchestrator, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	return newOrchestrator(opts, partitionCells(opts.Profiles, opts.Cells)), nil
}

// newOrchestrator builds an orchestrator over a given cell partition —
// fresh from partitionCells in New, the snapshot's TOPO
// section in Restore — with a fresh manager per server, empty cache
// shards per cell, and no assignment. cells lists each cell's global
// server indexes; a server listed in no cell is a removed one.
func newOrchestrator(opts Options, cells [][]int) *Orchestrator {
	o := &Orchestrator{opts: opts, assignment: map[string]int{}, lastSig: map[string]tenantSig{}}
	o.met = newFleetMetrics(opts.Metrics)
	// The orchestrator owns its profile list: AddServer grows it, and a
	// caller mutating its own slice must not alias ours.
	o.opts.Profiles = append([]string(nil), opts.Profiles...)
	n := len(o.opts.Profiles)
	o.cellOf = make([]int, n)
	o.localIdx = make([]int, n)
	for s, p := range o.opts.Profiles {
		o.cellOf[s], o.localIdx[s] = -1, -1
		o.machines = append(o.machines, newMachine(o.opts, p, nil, o.met.dyn))
	}
	for _, members := range cells {
		c := o.foundCell()
		o.cells[c] = members
		o.installCell(c, members)
	}
	return o
}

// foundCell appends an empty cell — no machines, no stored outcome, a
// fresh latency window, and its own score and estimate cache shards
// (none when Options.DisableScoreCache) — and returns its index.
func (o *Orchestrator) foundCell() int {
	c := len(o.cells)
	o.cells = append(o.cells, nil)
	o.cellProfiles = append(o.cellProfiles, nil)
	o.delta = append(o.delta, cellDelta{})
	o.lat = append(o.lat, cellLatency{})
	var sc *score.Cache
	var ec *score.EstimateCache
	if !o.opts.DisableScoreCache {
		sc = score.NewCache()
		sc.SetMetrics(o.met.score)
		ec = score.NewEstimates()
		ec.SetMetrics(o.met.estimates)
	}
	o.scores = append(o.scores, sc)
	o.estimates = append(o.estimates, ec)
	return c
}

// Servers returns the fleet size.
func (o *Orchestrator) Servers() int { return len(o.machines) }

// Cells returns how many placement cells the fleet is partitioned into
// (1 when Options.Cells is 0 or the fleet fits in one cell).
func (o *Orchestrator) Cells() int { return len(o.cells) }

// CellOf returns the placement cell owning a server (-1 for an
// out-of-range server index).
func (o *Orchestrator) CellOf(server int) int {
	if server < 0 || server >= len(o.cellOf) {
		return -1
	}
	return o.cellOf[server]
}

// CellScoreStats reports one cell's machine-score cache counters — all
// zero when the cache is disabled or the cell index is out of range.
func (o *Orchestrator) CellScoreStats(cell int) score.Stats {
	if cell < 0 || cell >= len(o.scores) {
		return score.Stats{}
	}
	return o.scores[cell].Snapshot()
}

// scoreStats sums the score-cache shards' counters.
func (o *Orchestrator) scoreStats() score.Stats {
	var sum score.Stats
	for _, c := range o.scores {
		sum = sum.Plus(c.Snapshot())
	}
	return sum
}

// estimateStats sums the estimate-cache shards' counters.
func (o *Orchestrator) estimateStats() score.Stats {
	var sum score.Stats
	for _, c := range o.estimates {
		sum = sum.Plus(c.Snapshot())
	}
	return sum
}

// ScoreStats reports the machine-score cache's (hits, misses, fresh
// advisor runs) counters, summed over the cell shards — all zero when
// the cache is disabled.
func (o *Orchestrator) ScoreStats() (hits, misses, runs int64) {
	s := o.scoreStats()
	return s.Hits, s.Misses, s.Runs
}

// CacheSizes reports the current entry counts of the machine-score cache
// and the estimate cache (summed over the cell shards) — the numbers
// Options.CacheSweep bounds.
func (o *Orchestrator) CacheSizes() (scores, estimates int) {
	return o.scoreStats().Size, o.estimateStats().Size
}

// CacheEvictions reports how many entries each cache's generation
// sweeps have dropped, summed over the cell shards.
func (o *Orchestrator) CacheEvictions() (scores, estimates int64) {
	return o.scoreStats().Evictions, o.estimateStats().Evictions
}

// Assignment returns a copy of the current tenant→server assignment.
func (o *Orchestrator) Assignment() map[string]int {
	out := make(map[string]int, len(o.assignment))
	for id, s := range o.assignment {
		out[id] = s
	}
	return out
}

// validatePins checks each pinned tenant's target against the live
// topology.
func (o *Orchestrator) validatePins(tenants []Tenant) error {
	for _, t := range tenants {
		if t.Pin == 0 {
			continue
		}
		if t.Pin < 0 || t.Pin > len(o.machines) {
			return fmt.Errorf("fleet: tenant %q pinned to server %d of %d", t.ID, t.Pin-1, len(o.machines))
		}
		if o.cellOf[t.Pin-1] < 0 {
			return fmt.Errorf("fleet: tenant %q pinned to removed server %d", t.ID, t.Pin-1)
		}
	}
	return nil
}

// validate checks one period's tenant inputs.
func validate(tenants []Tenant) error {
	if len(tenants) == 0 {
		return errors.New("fleet: a period needs at least one tenant")
	}
	seen := make(map[string]bool, len(tenants))
	for i, t := range tenants {
		if t.ID == "" {
			return fmt.Errorf("fleet: tenant %d has no ID", i)
		}
		if seen[t.ID] {
			return fmt.Errorf("fleet: duplicate tenant ID %q", t.ID)
		}
		seen[t.ID] = true
		if t.EstFor == nil {
			return fmt.Errorf("fleet: tenant %q has no EstFor", t.ID)
		}
		if t.Measure == nil {
			return fmt.Errorf("fleet: tenant %q has no Measure", t.ID)
		}
	}
	return nil
}

// countMoved counts surviving tenants whose assignment differs from
// their incumbent server.
func countMoved(assign, pinned []int) int {
	moved := 0
	for i := range assign {
		if pinned[i] >= 0 && assign[i] != pinned[i] {
			moved++
		}
	}
	return moved
}

// canonicalAssignment relabels the candidate assignment's machines
// within each profile class to match the incumbent as closely as
// possible. Same-profile machines are identical hardware, so a fresh
// placement seating a machine's whole tenant group on a different
// server of the same profile is a relabeling, not a set of migrations —
// left uncanonicalized it would overcharge the migration penalty and,
// when adopted, pointlessly reset the group's refined models. Candidate
// machines are greedily matched to the same-profile incumbent machine
// they share the most surviving tenants with (ties toward smaller
// server indexes); unmatched machines keep distinct same-profile
// servers in index order.
func canonicalAssignment(cand, pinned []int, profiles []string) []int {
	servers := len(profiles)
	// overlap[s][t]: surviving tenants candidate machine s shares with
	// incumbent machine t (same profile only).
	overlap := make([][]int, servers)
	for s := range overlap {
		overlap[s] = make([]int, servers)
	}
	for i, s := range cand {
		t := pinned[i]
		if t >= 0 && profiles[s] == profiles[t] {
			overlap[s][t]++
		}
	}
	perm := make([]int, servers) // candidate server → relabeled server
	taken := make([]bool, servers)
	for s := range perm {
		perm[s] = -1
	}
	// Greedy maximum-overlap matching: repeatedly take the best
	// remaining (candidate, incumbent) pair. Deterministic: strict
	// improvement only, scanning in index order.
	for {
		bestS, bestT, bestN := -1, -1, 0
		for s := 0; s < servers; s++ {
			if perm[s] >= 0 {
				continue
			}
			for t := 0; t < servers; t++ {
				// Cross-profile overlap is always 0, so matches stay
				// within a profile class.
				if !taken[t] && overlap[s][t] > bestN {
					bestS, bestT, bestN = s, t, overlap[s][t]
				}
			}
		}
		if bestS < 0 {
			break
		}
		perm[bestS] = bestT
		taken[bestT] = true
	}
	// Unmatched candidate machines take the free servers of their
	// profile in index order.
	for s := 0; s < servers; s++ {
		if perm[s] >= 0 {
			continue
		}
		for t := 0; t < servers; t++ {
			if !taken[t] && profiles[t] == profiles[s] {
				perm[s] = t
				taken[t] = true
				break
			}
		}
		if perm[s] < 0 {
			perm[s] = s // cannot happen (perm is a bijection within profiles), but stay safe
		}
	}
	out := make([]int, len(cand))
	for i, s := range cand {
		out[i] = perm[s]
	}
	return out
}

// Period runs one monitoring period over the fleet's current tenants:
// decide placement (with migration hysteresis), then drive every
// machine's dynamic manager.
//
// Periods are delta-driven: a cell whose inputs are unchanged and whose
// previous outcome is a proven fixed point (see delta.go) skips its
// placement and manager work entirely and replays the stored outcome
// into the merged report, bit-identically to what a recompute would
// produce. A steady period therefore recomputes zero cells, and a
// one-tenant drift recomputes one — the period's cost is proportional
// to what changed, not to fleet size. SetOptions (even with unchanged
// options) forces every cell to recompute in the next period; the report
// differs only in DirtyCells/ReplayedCells.
//
// Period is transactional at the fleet level: on any error the
// assignment, the period count, and every machine manager's accumulated
// state (classification history, refined models) are exactly as before
// the call, so the caller may simply retry.
func (o *Orchestrator) Period(tenants []Tenant) (*PeriodReport, error) {
	// Observability bookkeeping (strictly passive): wall-clock timing for
	// the latency histogram and the optional span tree. With no registry
	// and no sink both stay nil and cost nothing.
	var start time.Time
	timed := o.met.periodDur != nil
	var span *obs.Span
	if o.opts.TraceSink != nil {
		span = obs.StartSpan("period")
	}
	if timed || span != nil {
		start = time.Now()
	}
	var hits0 int64
	if span != nil {
		hits0 = o.scoreStats().Hits
	}
	if err := validate(tenants); err != nil {
		return nil, err
	}
	if err := o.validatePins(tenants); err != nil {
		return nil, err
	}
	nc := len(o.cells)
	rep := &PeriodReport{
		Machines: make([]MachineReport, len(o.machines)),
	}
	// Working buffers come from the orchestrator's scratch pool (see
	// periodScratch in delta.go): nothing stored in them outlives the
	// call, and a steady period reuses them allocation-free.
	sc := &o.scratch
	if sc.present == nil {
		sc.present = make(map[string]bool, len(tenants))
	}
	clear(sc.present)
	present := sc.present
	sc.pinned = scratchSlice(sc.pinned, len(tenants))
	pinned := sc.pinned
	for i, t := range tenants {
		present[t.ID] = true
		if s, ok := o.assignment[t.ID]; ok {
			pinned[i] = s
		} else {
			pinned[i] = -1
			rep.Arrivals++
		}
	}
	// Per-cell departure counts feed both dirty detection and the settle
	// predicate.
	sc.cellDep = scratchSlice(sc.cellDep, nc)
	cellDep := sc.cellDep
	for id, s := range o.assignment {
		if !present[id] {
			rep.Departures++
			cellDep[o.cellOf[s]]++
		}
	}

	sc.ptenants = scratchSlice(sc.ptenants, len(tenants))
	ptenants := sc.ptenants
	for i, t := range tenants {
		ptenants[i] = placement.Tenant{Name: t.ID, EstFor: t.EstFor,
			Gain: t.Gain, Limit: t.Limit, Fingerprint: t.Fingerprint}
	}

	// Route every tenant to its placement cell; QoS admission control
	// (Options.AdmitQoS) runs inside, turning away arrivals the fleet
	// provably cannot host and recording them in rep. See cells.go — on
	// a one-cell fleet this is exactly the flat orchestrator's joint
	// seat-and-check in input order.
	cellInputs, err := o.route(tenants, ptenants, pinned, rep)
	if err != nil {
		return nil, err
	}

	// Dirty detection: a cell must recompute when anything about its
	// inputs changed — an arrival routed in, a departure, a drifted or
	// re-QoSed or re-pinned survivor, a reordered input sequence — or
	// when its stored outcome is not a proven fixed point. Everything
	// here errs toward dirty: extra recomputation wastes work but can
	// never change a report.
	sc.dirty = scratchSlice(sc.dirty, nc)
	dirty := sc.dirty
	sc.cellArr = scratchSlice(sc.cellArr, nc)
	cellArr := sc.cellArr
	for c := range dirty {
		if !o.delta[c].settled || o.delta[c].out == nil || cellDep[c] > 0 {
			dirty[c] = true
		}
	}
	for c, idxs := range cellInputs {
		for _, i := range idxs {
			t := tenants[i]
			if pinned[i] < 0 {
				cellArr[c]++
				dirty[c] = true
				continue
			}
			if oc := o.cellOf[pinned[i]]; oc != c {
				// A pin moved a survivor across cells: a departure for
				// the old cell, an arrival for the new one, and a real
				// migration at the fleet level.
				dirty[oc] = true
				cellDep[oc]++
				dirty[c] = true
				cellArr[c]++
				rep.Migrations++
				continue
			}
			if t.Fingerprint == "" {
				// Unfingerprinted workloads give drift detection nothing
				// to compare: the cell stays permanently dirty.
				dirty[c] = true
				continue
			}
			if prev, ok := o.lastSig[t.ID]; !ok || prev != sigOf(t) {
				dirty[c] = true
			}
		}
		// The same tenant set in a different input order still dirties
		// the cell: input order feeds placement tie-breaks and the
		// per-machine report layout.
		if !dirty[c] {
			prev := o.delta[c].ids
			if len(prev) != len(idxs) {
				dirty[c] = true
			} else {
				for k, i := range idxs {
					if prev[k] != tenants[i].ID {
						dirty[c] = true
						break
					}
				}
			}
		}
	}

	placed := 0
	runCells := sc.runCells[:0]
	replayed := 0
	for c, idxs := range cellInputs {
		if len(idxs) == 0 {
			continue
		}
		placed += len(idxs)
		if dirty[c] {
			runCells = append(runCells, c)
		} else {
			replayed++
		}
	}
	sc.runCells = runCells
	if placed == 0 {
		return nil, errors.New("fleet: admission control rejected every tenant this period")
	}

	// Tracing: pre-create one child span per populated cell here, in
	// cell order, so each parallel cell goroutine below mutates only its
	// own span. Replayed cells get a closed span marked replayed=true —
	// their whole point is that no work happens.
	var cellSpans []*obs.Span
	if span != nil {
		cellSpans = make([]*obs.Span, nc)
		for c := 0; c < nc; c++ {
			if len(cellInputs[c]) == 0 {
				continue
			}
			cs := span.Child("cell")
			cs.SetInt("cell", int64(c))
			cs.SetInt("tenants", int64(len(cellInputs[c])))
			if dirty[c] {
				cs.SetBool("dirty", true)
				cs.SetInt("arrivals", int64(cellArr[c]))
			} else {
				cs.SetBool("replayed", true)
				cs.End()
			}
			cellSpans[c] = cs
		}
	}

	// One cache generation per recomputing cell: entries its run touches
	// are re-stamped, and the commit-time sweep (Options.CacheSweep)
	// drops whatever that cell stopped visiting. A clean cell's shards
	// are left alone entirely — no generation advance, no sweep — so an
	// idle cell's cached scores never age out beneath it and a later
	// drift period replays them as hits. A failed period advances the
	// touched generations without sweeping.
	for _, c := range runCells {
		o.scores[c].BeginGeneration()
		o.estimates[c].BeginGeneration()
	}

	// Only the recomputing cells' managers are snapshotted (a snapshot
	// clones every refined model, so taking one per machine would cost
	// O(fleet) on a steady period) and all are restored if any cell
	// fails, extending each machine Period's own transactionality to the
	// fleet level: a failed fleet period commits nothing anywhere.
	type managerSnap struct {
		server int
		state  *dynmgmt.State
	}
	var snaps []managerSnap
	for _, c := range runCells {
		for _, s := range o.cells[c] {
			snaps = append(snaps, managerSnap{s, o.machines[s].mgr.Snapshot()})
		}
	}
	restore := func() {
		for _, sn := range snaps {
			o.machines[sn.server].mgr.Restore(sn.state)
		}
	}

	// Fan the dirty cells out over the worker pool — cells own disjoint
	// machines and cache shards, so they never race — and split the
	// worker budget between them; a single cell keeps the whole pool,
	// matching the flat orchestrator exactly. Dispatch is longest-
	// processing-time-first: the cells are queued by descending latency
	// EWMA and ForEach's workers pull the queue dynamically, so an
	// expected straggler starts first instead of gating the period from
	// the tail (work stealing; see lptOrder). Ordering affects only who
	// computes when — each cell's outcome (or error) lands in its own
	// slot, the first error in CELL order wins, and the merge below runs
	// in fixed cell order, so reports are bit-identical at any
	// Parallelism and any dispatch order.
	sc.outs = scratchSlice(sc.outs, nc)
	outs := sc.outs
	sc.errs = scratchSlice(sc.errs, nc)
	errs := sc.errs
	sc.durs = scratchSlice(sc.durs, nc)
	durs := sc.durs
	sc.order = o.lptOrder(sc.order, runCells)
	order := sc.order
	share := core.BatchShare(o.opts.Core.Parallelism, len(runCells))
	if err := core.ForEach(o.opts.Core.Ctx, o.opts.Core.Parallelism, len(order), func(k int) error {
		c := order[k]
		var cs *obs.Span
		if cellSpans != nil {
			cs = cellSpans[c]
		}
		t0 := time.Now()
		outs[c], errs[c] = o.periodCell(c, cellInputs[c], tenants, ptenants, pinned, share, cs)
		durs[c] = time.Since(t0).Seconds()
		return nil
	}); err != nil {
		restore()
		return nil, err
	}
	for _, c := range runCells {
		if errs[c] != nil {
			restore()
			return nil, errs[c]
		}
	}

	// Merge the cell outcomes — recomputed and replayed alike — in fixed
	// cell order: sums and maxima are order-insensitive, map keys are
	// disjoint (a tenant lives in exactly one cell), and Machines slots
	// are global server indexes — so the merged report is bit-identical
	// at any Parallelism, and bit-identical to a full recompute (a
	// replayed outcome is exactly what the recompute would produce).
	if len(runCells) > 0 {
		// Copy out of the scratch pool: DirtyCells lives on in the
		// returned report.
		rep.DirtyCells = append([]int(nil), runCells...)
	}
	rep.ReplayedCells = replayed
	rep.Assignment = make(map[string]int, placed)
	rep.Allocations = make(map[string]core.Allocation, placed)
	rep.Degradations = make(map[string]float64, placed)
	for c := 0; c < nc; c++ {
		if len(cellInputs[c]) == 0 {
			continue
		}
		out := outs[c]
		if out == nil {
			out = o.delta[c].out // clean cell: replay the stored outcome
		}
		rep.CandidateCost += out.candidateCost
		rep.StayCost += out.stayCost
		rep.LocalSearchImprovement += out.lsImprovement
		if out.replaced {
			rep.Replaced = true
		}
		rep.Migrations += out.migrations
		rep.TotalCost += out.totalCost
		if out.maxDeg > rep.MaxDegradation {
			rep.MaxDegradation = out.maxDeg
		}
		rep.QoSViolations += out.qosViolations
		rep.Rebuilds += out.rebuilds
		for id, s := range out.assignment {
			rep.Assignment[id] = s
		}
		for id, a := range out.allocations {
			rep.Allocations[id] = a
		}
		for id, d := range out.degradations {
			rep.Degradations[id] = d
		}
		for gs, mrep := range out.machines {
			rep.Machines[gs] = mrep
		}
	}

	// Cross-cell rebalancing (Options.RebalanceBudget): evaluated over the
	// merged outcome, committed into the assignment below so the moves
	// take effect next period. See rebalance.go.
	var rspan *obs.Span
	if span != nil && o.opts.RebalanceBudget > 0 {
		rspan = span.Child("rebalance")
	}
	moves, err := o.rebalance(rep, tenants, ptenants)
	if err != nil {
		restore()
		return nil, err
	}
	if rspan != nil {
		rspan.SetInt("moves", int64(len(moves)))
		rspan.End()
	}

	// Delta bookkeeping for the cells that ran: store the outcome, the
	// input sequence it answers for, and whether it is a proven fixed
	// point (replayable next period).
	for _, c := range runCells {
		// Reuse the cell's previous signature buffer: the input-order
		// comparison above is long done, so overwriting it is safe.
		ids := o.delta[c].ids[:0]
		for _, i := range cellInputs[c] {
			ids = append(ids, tenants[i].ID)
		}
		o.delta[c] = cellDelta{out: outs[c], ids: ids,
			settled: settledOutcome(outs[c], cellArr[c], cellDep[c])}
	}

	// Commit: the new assignment, and a fresh manager on every machine
	// that hosts no tenant — whatever per-tenant state it still holds
	// belongs to tenants that moved away or departed. Every machine is
	// checked, not just the cells that ran: a cell whose whole population
	// departed may have no stored outcome (a restored cell has none), and
	// a cell emptied by a rebalance move saw no departure. Machines that
	// are already fresh are left alone, so a steady period allocates
	// nothing here.
	sc.occupied = scratchSlice(sc.occupied, len(o.machines))
	occupied := sc.occupied
	for _, s := range rep.Assignment {
		occupied[s] = true
	}
	for s, m := range o.machines {
		if c := o.cellOf[s]; c >= 0 && !occupied[s] && !m.mgr.Fresh() {
			o.machines[s] = newMachine(o.opts, o.opts.Profiles[s], o.scores[c], o.met.dyn)
		}
	}
	for c := 0; c < nc; c++ {
		if len(cellInputs[c]) == 0 && o.delta[c].out != nil {
			o.delta[c] = cellDelta{}
		}
	}
	o.assignment = make(map[string]int, len(rep.Assignment))
	for id, s := range rep.Assignment {
		o.assignment[id] = s
	}
	// Apply the rebalance moves — effective next period, dirtying
	// exactly the two cells involved.
	for _, mv := range moves {
		o.assignment[mv.id] = mv.to
		o.delta[o.cellOf[mv.from]].settled = false
		o.delta[o.cellOf[mv.to]].settled = false
		rep.RebalanceMoves++
		rep.Rebalanced = append(rep.Rebalanced, mv.id)
	}
	// Latency feedback, committed only once the period cannot fail (a
	// failed period feeds nothing), then the cell-size controller: the
	// partition edits it adopts dirty only the touched cells and take
	// effect next period. Every cell is first marked stale and the cells
	// that computed clear the mark in observe(), so a window untouched
	// this period (a settled, replayed cell) is recognizably frozen —
	// the auto-tuner and CellLatencyP95 leave it alone. Timing steers
	// scheduling and the partition, never the outcome of a fixed
	// partition — see autotune.go.
	for c := range o.lat {
		o.lat[c].stale = true
	}
	for _, c := range runCells {
		o.lat[c].observe(durs[c])
	}
	o.autoTune(rep, runCells)
	// Input signatures for next period's drift detection: placed tenants
	// only, departed IDs dropped.
	for _, t := range tenants {
		if _, ok := rep.Assignment[t.ID]; ok {
			o.lastSig[t.ID] = sigOf(t)
		}
	}
	for id := range o.lastSig {
		if !present[id] {
			delete(o.lastSig, id)
		}
	}
	o.period++
	rep.Period = o.period
	if k := o.opts.CacheSweep; k > 0 {
		// Commit-time sweep, recomputing cells only: everything their
		// runs touched is stamped with the current generation, so what
		// falls out is exactly the configurations (and point estimates)
		// those cells stopped visiting for k of their own generations.
		for _, c := range runCells {
			o.scores[c].Sweep(k)
			o.estimates[c].Sweep(k)
		}
	}
	// Commit observability last, once the period cannot fail: metrics
	// and traces describe committed periods only.
	var elapsed time.Duration
	if timed {
		elapsed = time.Since(start)
	}
	o.commitMetrics(rep, elapsed)
	if span != nil {
		span.SetInt("period", int64(rep.Period))
		span.SetInt("tenants", int64(placed))
		span.SetInt("arrivals", int64(rep.Arrivals))
		span.SetInt("departures", int64(rep.Departures))
		span.SetInt("dirty_cells", int64(len(runCells)))
		span.SetInt("replayed_cells", int64(replayed))
		span.SetInt("migrations", int64(rep.Migrations))
		span.SetInt("rebalance_moves", int64(rep.RebalanceMoves))
		span.SetInt("score_cache_hits", o.scoreStats().Hits-hits0)
		span.End()
		o.opts.TraceSink(span)
	}
	return rep, nil
}
