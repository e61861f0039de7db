package vdesign

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/calibrate"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

// MachineProfile describes one fleet server's hardware generation. Zero
// fields take the standard experimental machine's values, so
// MachineProfile{} is the paper's server and
// MachineProfile{CPUHz: 1.1e9, MemoryBytes: 4 << 30} is an older
// half-size box. Servers with equal profiles share one PostgreSQL and
// one DB2 calibration from the process-wide calibration cache; each
// distinct profile is calibrated once per process (§4.3).
type MachineProfile struct {
	// CPUHz is effective instructions per second at a 100% CPU share.
	CPUHz float64
	// MemoryBytes is the machine memory divided among its VMs.
	MemoryBytes float64
	// IOContention multiplies I/O service times (the §7.1 noise VM; the
	// default is 2.0).
	IOContention float64
}

// machineOf builds the simulated machine for a profile.
func (p MachineProfile) machineOf() *vmsim.Machine {
	hw := vmsim.DefaultHardware()
	if p.CPUHz > 0 {
		hw.CPUHz = p.CPUHz
	}
	if p.MemoryBytes > 0 {
		hw.MemoryBytes = p.MemoryBytes
	}
	io := p.IOContention
	if io <= 0 {
		io = 2.0
	}
	return vmsim.New(hw, io)
}

// FleetOptions tunes a fleet run.
type FleetOptions struct {
	// MigrationCost is the penalty, in gain-weighted estimated seconds,
	// charged per moved tenant when deciding whether to adopt a
	// re-placement each period. 0 means migrations are free (the fleet
	// adopts the fresh placement every period); math.Inf(1) freezes the
	// initial placement.
	MigrationCost float64
	// Delta is the advisor's greedy step (default 5%).
	Delta float64
	// Parallelism bounds concurrent what-if estimations (default 1).
	// Reports are bit-identical across settings.
	Parallelism int
	// Context cancels long-running periods; nil means no cancellation.
	Context context.Context
	// LocalSearch bounds the post-greedy local-search refinement of each
	// period's placement runs (single-tenant moves and pairwise swaps,
	// applied only while the fleet objective strictly improves). 0
	// disables it. With local search on, each period's candidate
	// placement is seeded from the incumbent assignment — survivors start
	// where they are, arrivals are placed greedily, and local search
	// refines the whole fleet — instead of repacking greedily from
	// scratch; without it, the candidate is packed from scratch and
	// MigrationCost decides which moves are adopted. Reports are
	// deterministic and bit-identical across Parallelism either way.
	LocalSearch int
	// AdmitQoS enables fleet-level admission control: an arriving tenant
	// is rejected for the period — reported by FleetPeriodReport.Rejected
	// with a reason in RejectedReasons — when every machine slot is taken
	// or no machine can seat it with every member's degradation limit
	// holding (the arrival's own and the incumbent residents'). A
	// rejected tenant stays registered and is re-considered every
	// following period. Simultaneous arrivals are admitted jointly: each
	// admitted arrival is tentatively seated before the next is checked,
	// so arrivals that fit alone but conflict as a batch are split
	// deterministically in registration order.
	AdmitQoS bool
	// ScoreCacheSweep bounds the fleet's caches — the machine-score cache
	// and the estimate cache of point what-if evaluations — by dropping
	// entries untouched for this many consecutive periods (0 = never:
	// the caches grow with every configuration ever scored). Each Period
	// advances a cache generation, so configurations the fleet stopped
	// visiting — departed tenants, drifted-away workloads — age out while
	// the working set stays cached and steady periods stay at zero fresh
	// advisor runs. Eviction can cost re-runs, never change a report.
	ScoreCacheSweep int
	// Incremental is ignored: a period's candidate placement is seeded
	// from the incumbent assignment exactly when LocalSearch > 0.
	//
	// Deprecated: set LocalSearch instead.
	Incremental bool
	// Cells bounds a placement cell to at most this many servers
	// (0 disables partitioning). Large fleets are partitioned into cells
	// — servers grouped by hardware profile, then dealt round-robin so
	// every cell sees every profile — and each period routes tenants to
	// cells (survivors stay with their server's cell, arrivals go to the
	// cell with the most free slots) and runs the cells' placement and
	// tuning work concurrently under Parallelism. Reports stay
	// bit-identical across Parallelism, and a fleet of at most Cells
	// servers behaves bit-identically to Cells == 0. Tenants migrate
	// across cells only through RebalanceBudget (or a pin), so a cell size
	// keeps each period's search O(cells × cellSize²) instead of
	// O(servers²).
	Cells int
	// RebalanceBudget bounds cross-cell rebalancing: the per-period budget
	// of cross-cell moves (and failed attempts) the rebalancer may spend.
	// After each period's placement work the pass ranks every (hot, cold)
	// cell pair by pressure gap (mean machine load) and drains the largest
	// gaps first, so a budget above 1 lets several correlated hot spots
	// drain in one period instead of one per period; a budget of 1 moves
	// at most one tenant, from the hottest cell to the coldest. Each move
	// is priced against MigrationCost like any other migration and adopted
	// only when the estimated improvement strictly beats the penalty.
	// Moves take effect next period and are reported by
	// FleetPeriodReport.RebalanceMoves/Rebalanced. 0 (the default)
	// disables rebalancing: tenants then never leave their cell.
	RebalanceBudget int
	// AutoTuneCells turns on latency-driven cell-size auto-tuning: the
	// orchestrator observes each cell's per-period compute time and,
	// between periods, splits cells whose p95 exceeds CellLatencyTarget
	// and merges pairs of persistently cold cells back together. Splits
	// and merges never move a tenant — machines travel with their
	// residents — so reports stay bit-identical for any fixed partition;
	// only which cells recompute changes. Requires Cells > 0 (the bound
	// also caps how large a merged cell may grow). Reported by
	// FleetPeriodReport.CellSplits/CellMerges.
	AutoTuneCells bool
	// CellLatencyTarget is the auto-tuner's per-cell p95 compute-time
	// band: cells observed above the target split, cells observed below
	// a quarter of it merge. 0 means 50ms. Ignored without
	// AutoTuneCells.
	CellLatencyTarget time.Duration
	// Metrics optionally registers the fleet's metric families (period
	// latency, cache traffic, admission rejections, …) on an obs
	// registry, typically one served over HTTP by obs.Serve. Nil (the
	// default) records nothing and costs nothing. Observability is
	// strictly passive: reports are bit-identical with it on or off.
	Metrics *obs.Registry
	// TraceSink, when set, receives each committed period's span tree
	// (period → cells → placement phases → per-machine advisor runs),
	// e.g. to write NDJSON via obs.Span.WriteJSON. Called synchronously
	// at the end of every successful Period.
	TraceSink func(*obs.Span)
}

// fleetCal is one hardware profile's machine and calibrations.
type fleetCal struct {
	machine *vmsim.Machine
	pg      *calibrate.PGResult
	db2     *calibrate.DB2Result
}

// Fleet is a heterogeneous cluster of servers managed through monitoring
// periods: the dynamic multi-machine layer above Cluster. Each Period
// call re-examines tenant placement (arrivals are seated, migrations
// happen only when the estimated improvement beats
// FleetOptions.MigrationCost per moved tenant) and re-tunes every
// machine's resource shares through the §6 dynamic-management loop.
type Fleet struct {
	opts     FleetOptions
	machines []*vmsim.Machine
	keys     []string // profile key per server
	cals     map[string]*fleetCal
	tenants  []*FleetTenant
	seq      int // tenant registration counter (see FleetTenant.key)
	orch     *fleet.Orchestrator
	reports  []*FleetPeriodReport // the latest reportWindow periods
}

// FleetTenant identifies one tenant registered with a fleet.
type FleetTenant struct {
	id string
	// key is the orchestrator-facing identity: the user ID plus a
	// registration sequence number, so re-registering a removed tenant's
	// ID is a fresh arrival — it must never inherit the departed
	// tenant's assignment or refined models.
	key     string
	flavor  Flavor
	schema  *catalog.Schema
	w       *workload.Workload
	sys     dbms.System
	qos     QoS
	removed bool
	// wver counts workload versions: SetWorkload bumps it, and the
	// tenant's score-cache fingerprint (key@wver) re-keys every machine
	// configuration containing the tenant when its workload drifts.
	wver int
	// pin holds the 1-based pinned server (0 = unpinned); see PinTenant.
	pin int
	// ests caches the per-profile what-if estimators for the current
	// workload; SetWorkload invalidates it.
	ests map[string]*core.WhatIfEstimator
}

// ID returns the tenant's identifier.
func (t *FleetTenant) ID() string { return t.id }

// NewFleet creates an empty fleet. Add servers with AddServer and
// tenants with AddTenant, then drive monitoring periods with Period.
func NewFleet(opts *FleetOptions) *Fleet {
	f := &Fleet{cals: map[string]*fleetCal{}}
	if opts != nil {
		f.opts = *opts
	}
	return f
}

// profileKeyOf folds a machine's hardware into the fleet's profile key;
// equal hardware shares estimators, calibrations, and placement's
// empty-machine pruning.
func profileKeyOf(m *vmsim.Machine) string {
	return fmt.Sprintf("%v|%v", m.HW, m.IOContention)
}

// AddServer grows the fleet by one server of the given hardware profile
// and returns its server index. The profile's calibrations come from the
// process-wide calibration cache, so only the first server (or Server or
// Cluster) on a distinct profile pays for them. Servers may be added
// mid-run, between Period calls: the new server joins an existing
// placement cell with room (or founds a new one) without disturbing any
// other server's cell, and the next period may migrate tenants onto it.
func (f *Fleet) AddServer(p MachineProfile) (int, error) {
	m := p.machineOf()
	key := profileKeyOf(m)
	if _, ok := f.cals[key]; !ok {
		pg, err := calibrate.PGFor(m, calibrate.Options{})
		if err != nil {
			return 0, fmt.Errorf("vdesign: calibrating PostgreSQL: %w", err)
		}
		db2, err := calibrate.DB2For(m, calibrate.Options{})
		if err != nil {
			return 0, fmt.Errorf("vdesign: calibrating DB2: %w", err)
		}
		f.cals[key] = &fleetCal{machine: m, pg: pg, db2: db2}
	}
	f.machines = append(f.machines, m)
	f.keys = append(f.keys, key)
	if f.orch != nil {
		f.orch.AddServer(key)
	}
	return len(f.machines) - 1, nil
}

// RemoveServer retires a drained server once periods have begun: it
// leaves its placement cell and hosts nothing from the next period on.
// The server must be empty — pin its tenants elsewhere (PinTenant) or
// remove them, then run a Period so the moves take effect. Server
// indexes are never reused. Before the first Period the topology is
// still forming and servers cannot be retired.
func (f *Fleet) RemoveServer(server int) error {
	if f.orch == nil {
		return errors.New("vdesign: no periods have run; build the fleet without the server instead")
	}
	if err := f.orch.RemoveServer(server); err != nil {
		return fmt.Errorf("vdesign: %w", err)
	}
	return nil
}

// PinTenant forces a tenant onto one server from the next Period on: the
// placement runs hold it there, QoS admission control does not apply to
// it, and — if its incumbent machine is in another placement cell — the
// pin migrates it across cells. Pins survive until UnpinTenant.
func (f *Fleet) PinTenant(t *FleetTenant, server int) error {
	if server < 0 || server >= len(f.machines) {
		return fmt.Errorf("vdesign: no server %d in a fleet of %d", server, len(f.machines))
	}
	t.pin = server + 1
	return nil
}

// UnpinTenant releases a pin: from the next Period on the tenant is
// placed freely again (within its cell, like any survivor).
func (f *Fleet) UnpinTenant(t *FleetTenant) { t.pin = 0 }

// Servers returns the fleet size.
func (f *Fleet) Servers() int { return len(f.machines) }

// AddTenant registers a tenant: a VM running the given DBMS flavor over
// a schema with a workload of SQL statements. The ID names the tenant
// across periods (arrivals mid-run are simply tenants added between
// Period calls). IDs must be unique among live tenants.
func (f *Fleet) AddTenant(id string, flavor Flavor, schema *catalog.Schema, statements []string) (*FleetTenant, error) {
	w := &workload.Workload{Name: id}
	for _, sql := range statements {
		w.Statements = append(w.Statements, workload.MustStatement(sql))
	}
	return f.AddTenantWorkload(id, flavor, schema, w)
}

// AddTenantWorkload registers a tenant with a fully specified workload.
func (f *Fleet) AddTenantWorkload(id string, flavor Flavor, schema *catalog.Schema, w *workload.Workload) (*FleetTenant, error) {
	if id == "" {
		return nil, errors.New("vdesign: fleet tenant needs an ID")
	}
	for _, t := range f.tenants {
		if !t.removed && t.id == id {
			return nil, fmt.Errorf("vdesign: duplicate fleet tenant ID %q", id)
		}
	}
	if schema == nil || w == nil || len(w.Statements) == 0 {
		return nil, errors.New("vdesign: tenant needs a schema and a non-empty workload")
	}
	sys, err := newSystem(flavor, schema)
	if err != nil {
		return nil, err
	}
	t := &FleetTenant{id: id, key: fmt.Sprintf("%s#%d", id, f.seq), flavor: flavor, schema: schema, w: w, sys: sys}
	f.seq++
	f.tenants = append(f.tenants, t)
	return t, nil
}

// SetQoS sets a tenant's degradation limit and gain factor; they travel
// with the tenant across machines.
func (f *Fleet) SetQoS(t *FleetTenant, q QoS) { t.qos = q }

// SetWorkload replaces a tenant's workload — the fleet-level form of
// workload drift. The next Period observes the new workload, and each
// machine's manager classifies the change (§6.1) from the per-query
// estimate shift.
func (f *Fleet) SetWorkload(t *FleetTenant, w *workload.Workload) error {
	if w == nil || len(w.Statements) == 0 {
		return errors.New("vdesign: tenant workload must be non-empty")
	}
	t.w = w
	t.wver++
	t.ests = nil
	return nil
}

// RemoveTenant departs a tenant from the fleet: the next Period drops
// its state and frees its shares.
func (f *Fleet) RemoveTenant(t *FleetTenant) { t.removed = true }

// estOn returns (building if needed) the tenant's what-if estimator for
// one profile key: the current workload costed under that profile's
// calibration and machine memory.
func (f *Fleet) estOn(t *FleetTenant, key string) *core.WhatIfEstimator {
	if est, ok := t.ests[key]; ok {
		return est
	}
	cal := f.cals[key]
	est := whatIfEstimator(t.flavor, t.sys, t.w, cal.pg, cal.db2, cal.machine.HW.MemoryBytes)
	if t.ests == nil {
		t.ests = map[string]*core.WhatIfEstimator{}
	}
	t.ests[key] = est
	return est
}

// coreOpts shapes the advisor-option template for the orchestrator.
func (f *Fleet) coreOpts() core.Options {
	co := core.Options{Resources: 2}
	if f.opts.Delta > 0 {
		co.Delta = f.opts.Delta
	}
	co.Parallelism = f.opts.Parallelism
	co.Ctx = f.opts.Context
	return co
}

// avgRef is the fixed reference allocation for the §6.1 change metric.
var avgRef = core.Allocation{0.5, 0.5}

// periodInputs builds the orchestrator inputs for the live tenants. The
// AvgEstPerQuery metric is always measured on server 0's profile so that
// period-over-period changes reflect the workload, not a migration.
func (f *Fleet) periodInputs() ([]fleet.Tenant, error) {
	var inputs []fleet.Tenant
	for _, t := range f.tenants {
		if t.removed {
			continue
		}
		t := t
		w, sys := t.w, t.sys // snapshot: SetWorkload may drift them later
		avg, err := f.estOn(t, f.keys[0]).AvgEstimatePerQuery(avgRef)
		if err != nil {
			return nil, fmt.Errorf("vdesign: tenant %q change metric: %w", t.id, err)
		}
		in := fleet.Tenant{
			ID:             t.key,
			AvgEstPerQuery: avg,
			Fingerprint:    fmt.Sprintf("%s@%d", t.key, t.wver),
			Pin:            t.pin,
			EstFor: func(profile string) core.Estimator {
				return f.estOn(t, profile)
			},
			Measure: func(server int, a core.Allocation) (float64, error) {
				alloc := dbms.Alloc{CPU: a[0], Mem: a[1]}.Clamp(0.01)
				return f.machines[server].RunWorkload(sys, w, alloc)
			},
		}
		if t.qos.GainFactor >= 1 {
			in.Gain = t.qos.GainFactor
		}
		if t.qos.DegradationLimit >= 1 {
			in.Limit = t.qos.DegradationLimit
		}
		inputs = append(inputs, in)
	}
	if len(inputs) == 0 {
		return nil, errors.New("vdesign: fleet has no live tenants")
	}
	return inputs, nil
}

// orchOptions shapes the orchestrator options from the fleet's current
// configuration — shared by the first Period (which creates the
// orchestrator) and RestoreFleet (which rebuilds it from a snapshot, so
// both paths must derive the options identically).
func (f *Fleet) orchOptions() fleet.Options {
	cells := f.opts.Cells
	if f.opts.AutoTuneCells && cells <= 0 {
		// Auto-tuning needs a cell-size bound; default to the fleet
		// size so the tuner starts from one cell and splits downward.
		cells = len(f.keys)
	}
	return fleet.Options{
		Profiles:        f.keys,
		MigrationCost:   f.opts.MigrationCost,
		Core:            f.coreOpts(),
		LocalSearch:     f.opts.LocalSearch,
		AdmitQoS:        f.opts.AdmitQoS,
		CacheSweep:      f.opts.ScoreCacheSweep,
		Cells:           cells,
		RebalanceBudget: f.opts.RebalanceBudget,
		AutoTuneCells:   f.opts.AutoTuneCells,
		CellP95Target:   f.opts.CellLatencyTarget.Seconds(),
		Metrics:         f.opts.Metrics,
		TraceSink:       f.opts.TraceSink,
	}
}

// Period runs one monitoring period: place (or keep) every live tenant,
// then classify, re-tune, measure, and refine each machine. The first
// call fixes the fleet topology and performs the initial placement.
// Reports are bit-identical across FleetOptions.Parallelism settings.
func (f *Fleet) Period() (*FleetPeriodReport, error) {
	if len(f.machines) == 0 {
		return nil, errors.New("vdesign: fleet has no servers")
	}
	if f.orch == nil {
		orch, err := fleet.New(f.orchOptions())
		if err != nil {
			return nil, fmt.Errorf("vdesign: %w", err)
		}
		f.orch = orch
	}
	inputs, err := f.periodInputs()
	if err != nil {
		return nil, err
	}
	rep, err := f.orch.Period(inputs)
	if err != nil {
		return nil, fmt.Errorf("vdesign: fleet period: %w", err)
	}
	// Translate the orchestrator's rejected and rebalanced registration
	// keys back to user-facing tenant IDs while the handles are still
	// registered.
	var rejected, reasons, rebalanced []string
	if len(rep.Rejected) > 0 || len(rep.Rebalanced) > 0 {
		byKey := make(map[string]string, len(f.tenants))
		for _, t := range f.tenants {
			byKey[t.key] = t.id
		}
		for i, k := range rep.Rejected {
			rejected = append(rejected, byKey[k])
			reasons = append(reasons, rep.RejectedReasons[i].String())
		}
		for _, k := range rep.Rebalanced {
			rebalanced = append(rebalanced, byKey[k])
		}
	}
	// The period observed every departure, so removed tenants can be
	// released — a long-lived fleet with per-period churn must not grow
	// with its total departure count. (Their handles stay usable against
	// earlier reports, which are keyed by the tenant's registration key.)
	live := f.tenants[:0]
	for _, t := range f.tenants {
		if !t.removed {
			live = append(live, t)
		}
	}
	f.tenants = live
	out := &FleetPeriodReport{rep: rep, rejected: rejected, reasons: reasons, rebalanced: rebalanced}
	f.reports = append(f.reports, out)
	if len(f.reports) > reportWindow {
		// Copy the window down and clear the vacated slots: reslicing
		// would keep the dropped reports alive in the backing array.
		n := copy(f.reports, f.reports[len(f.reports)-reportWindow:])
		clear(f.reports[n:])
		f.reports = f.reports[:n]
	}
	return out, nil
}

// reportWindow is how many of the latest period reports a Fleet keeps.
const reportWindow = 16

// Report returns the reports of the fleet's latest periods, oldest
// first: all of them up to the 16th period, the last 16 after that.
// Older reports are dropped and become unreachable, so a long-lived
// fleet's memory does not grow with its period count; a caller that
// needs a longer history keeps what Period returns.
func (f *Fleet) Report() []*FleetPeriodReport {
	return append([]*FleetPeriodReport(nil), f.reports...)
}

// ScoreStats reports the fleet's machine-score cache counters — runs
// served from the cache (hits), cacheable configurations scored fresh
// (misses), and total fresh advisor executions (runs) — accumulated over
// every period so far. All zeros before the first period.
func (f *Fleet) ScoreStats() (hits, misses, runs int64) {
	if f.orch == nil {
		return 0, 0, 0
	}
	return f.orch.ScoreStats()
}

// CacheSizes reports the current entry counts of the fleet's
// machine-score cache and estimate cache — the numbers
// FleetOptions.ScoreCacheSweep bounds.
func (f *Fleet) CacheSizes() (scores, estimates int) {
	if f.orch == nil {
		return 0, 0
	}
	return f.orch.CacheSizes()
}

// CacheEvictions reports how many entries each cache's generation
// sweeps dropped.
func (f *Fleet) CacheEvictions() (scores, estimates int64) {
	if f.orch == nil {
		return 0, 0
	}
	return f.orch.CacheEvictions()
}

// Cells reports how many placement cells the current topology forms
// under FleetOptions.Cells (1 when partitioning is disabled or the fleet
// fits in one cell; 0 for an empty fleet). Once periods have begun the
// orchestrator's live partition is authoritative.
func (f *Fleet) Cells() int {
	if f.orch != nil {
		return f.orch.Cells()
	}
	if len(f.keys) == 0 {
		return 0
	}
	return fleet.NumCells(len(f.keys), f.opts.Cells)
}

// CellOf returns the placement cell owning a server under the current
// topology (-1 for an out-of-range server index). Tenants placed in a
// cell stay within it across periods. Once periods have begun the
// orchestrator's live partition is authoritative; before that the
// answer is the partition the first period will start from.
func (f *Fleet) CellOf(server int) int {
	if f.orch != nil {
		return f.orch.CellOf(server)
	}
	if server < 0 || server >= len(f.keys) {
		return -1
	}
	return fleet.CellIndex(f.keys, f.opts.Cells)[server]
}

// FleetPeriodReport is the outcome of one fleet monitoring period.
type FleetPeriodReport struct {
	rep        *fleet.PeriodReport
	rejected   []string
	reasons    []string
	rebalanced []string
}

// Period is the 1-based period number.
func (r *FleetPeriodReport) Period() int { return r.rep.Period }

// Migrations counts surviving tenants that changed servers this period.
func (r *FleetPeriodReport) Migrations() int { return r.rep.Migrations }

// Arrivals and Departures count tenant-set changes vs the previous
// period.
func (r *FleetPeriodReport) Arrivals() int   { return r.rep.Arrivals }
func (r *FleetPeriodReport) Departures() int { return r.rep.Departures }

// Replaced reports whether the period adopted the fresh re-placement
// (vs keeping survivors put under the migration penalty).
func (r *FleetPeriodReport) Replaced() bool { return r.rep.Replaced }

// TotalCost is the fleet's gain-weighted estimated cost at the deployed
// allocations.
func (r *FleetPeriodReport) TotalCost() float64 { return r.rep.TotalCost }

// CandidateCost and StayCost are the placement objectives the migration
// decision compared.
func (r *FleetPeriodReport) CandidateCost() float64 { return r.rep.CandidateCost }
func (r *FleetPeriodReport) StayCost() float64      { return r.rep.StayCost }

// MaxDegradation is the worst per-tenant degradation this period;
// QoSViolations counts tenants past their limit; Rebuilds counts §6.2
// cost-model rebuilds.
func (r *FleetPeriodReport) MaxDegradation() float64 { return r.rep.MaxDegradation }
func (r *FleetPeriodReport) QoSViolations() int      { return r.rep.QoSViolations }
func (r *FleetPeriodReport) Rebuilds() int           { return r.rep.Rebuilds }

// LocalSearchImprovement is how much local search lowered the candidate
// placement's objective below greedy packing this period (0 with
// FleetOptions.LocalSearch unset).
func (r *FleetPeriodReport) LocalSearchImprovement() float64 { return r.rep.LocalSearchImprovement }

// Rejected lists tenants turned away by QoS admission control this
// period (FleetOptions.AdmitQoS), in input order. Rejected tenants stay
// registered and are re-considered next period.
func (r *FleetPeriodReport) Rejected() []string {
	return append([]string(nil), r.rejected...)
}

// RejectedReasons says why each Rejected tenant was turned away,
// index-aligned with Rejected: "capacity" (every slot taken), "qos" (no
// machine can seat it within everyone's degradation limit), or
// "batch-conflict" (admissible alone, but not jointly with arrivals
// admitted earlier in the same period's batch).
func (r *FleetPeriodReport) RejectedReasons() []string {
	return append([]string(nil), r.reasons...)
}

// ServerOf returns the server a tenant was assigned to this period, or
// -1 if the tenant was not part of the period.
func (r *FleetPeriodReport) ServerOf(t *FleetTenant) int {
	if s, ok := r.rep.Assignment[t.key]; ok {
		return s
	}
	return -1
}

// Shares returns (cpuShare, memShare) deployed for a tenant this period
// (zeros if the tenant was not part of the period).
func (r *FleetPeriodReport) Shares(t *FleetTenant) (cpu, mem float64) {
	if a, ok := r.rep.Allocations[t.key]; ok && len(a) >= 2 {
		return a[0], a[1]
	}
	return 0, 0
}

// Degradation returns the tenant's estimated degradation vs a dedicated
// machine of its server's profile (0 if the tenant was not part of the
// period).
func (r *FleetPeriodReport) Degradation(t *FleetTenant) float64 {
	return r.rep.Degradations[t.key]
}

// DirtyCells lists the placement cells that actually recomputed this
// period (ascending); ReplayedCells counts the clean cells whose
// previous outcome was replayed instead. Under delta periods a steady
// period recomputes zero cells and a one-tenant drift recomputes one —
// these fields describe work done, not results, which are bit-identical
// either way.
func (r *FleetPeriodReport) DirtyCells() []int {
	return append([]int(nil), r.rep.DirtyCells...)
}

// ReplayedCells counts the clean cells replayed this period (see
// DirtyCells).
func (r *FleetPeriodReport) ReplayedCells() int { return r.rep.ReplayedCells }

// RebalanceMoves counts cross-cell migrations adopted by this period's
// rebalancing pass (FleetOptions.RebalanceBudget); the moves take effect
// next period and are not counted in Migrations.
func (r *FleetPeriodReport) RebalanceMoves() int { return r.rep.RebalanceMoves }

// Rebalanced lists the tenants moved by this period's rebalancing pass,
// in move order (see RebalanceMoves).
func (r *FleetPeriodReport) Rebalanced() []string {
	return append([]string(nil), r.rebalanced...)
}

// CellSplits lists the cells the auto-tuner split at this period's
// commit (FleetOptions.AutoTuneCells): each listed cell kept half its
// machines and moved the rest — residents included — into a fresh cell.
// The split changes no assignment; both halves recompute next period.
func (r *FleetPeriodReport) CellSplits() []int {
	return append([]int(nil), r.rep.CellSplits...)
}

// CellMerges lists the cell pairs the auto-tuner merged at this
// period's commit, as [into, from] — from's machines (and residents)
// joined into, and from is empty afterwards. Like splits, merges change
// no assignment.
func (r *FleetPeriodReport) CellMerges() [][2]int {
	return append([][2]int(nil), r.rep.CellMerges...)
}
