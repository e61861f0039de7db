// Package dynmgmt implements the paper's dynamic configuration management
// (§6): monitoring-period-driven detection of workload changes and the
// re-allocation policy that decides, per workload and period, between
// continuing online refinement and discarding the refined cost model to
// restart from fresh optimizer estimates.
//
// Change detection uses the relative change in the average optimizer cost
// estimate per query between periods (§6.1): above the threshold τ (10%)
// the change is major; otherwise minor. The relative modeling error
// E_ip = |Est − Act| / Act guards refinement that has not yet converged
// (§6.2): refinement continues only when errors are small (< 5%) or
// shrinking.
package dynmgmt

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/refine"
)

const (
	// tau is the major-change threshold on the relative per-query
	// estimate change (§6.1).
	tau = 0.10
	// errThreshold bounds the relative modeling error E_ip below which
	// unconverged refinement may continue (§6.2).
	errThreshold = 0.05
)

// ChangeClass classifies a workload's change in one monitoring period.
type ChangeClass int

// Change classes.
const (
	// ChangeNone means the workload's per-query estimate was stable.
	ChangeNone ChangeClass = iota
	// ChangeMinor is a sub-threshold change, handled by refinement.
	ChangeMinor
	// ChangeMajor exceeds τ and forces a model rebuild.
	ChangeMajor
)

func (c ChangeClass) String() string {
	switch c {
	case ChangeNone:
		return "none"
	case ChangeMinor:
		return "minor"
	case ChangeMajor:
		return "major"
	}
	return "?"
}

// PeriodInput is what monitoring delivers for one tenant at the end of a
// period: a what-if estimator for the tenant's *current* workload, the
// current average optimizer estimate per query (the §6.1 change metric's
// raw material), and a way to measure actual cost.
type PeriodInput struct {
	// ID identifies the tenant across periods. When IDs are used (all
	// inputs of a period must then carry one), the manager keys its
	// per-tenant state by ID, so the tenant set may change between
	// periods — the fleet-level case where a placement layer moves
	// tenants on and off a machine. A newly appearing ID starts with
	// first-period semantics (no change to classify, model built fresh
	// from the optimizer); a disappearing ID's state is dropped. With
	// empty IDs, inputs are positional and the tenant count is fixed at
	// NewManager's n.
	ID string
	// Gain and Limit optionally carry the tenant's QoS settings (the §3
	// gain factor G_i ≥ 1 and degradation limit L_i ≥ 1; zero means
	// default). When any input sets one, the period's advisor run uses
	// these per-tenant values instead of Opts.Gains/Limits — positional
	// option vectors cannot follow a tenant set that changes between
	// periods, so ID-keyed managers must attach QoS here.
	Gain  float64
	Limit float64
	// Estimator is optimizer-backed for the current workload.
	Estimator core.Estimator
	// AvgEstPerQuery is the optimizer's average per-query estimate for
	// the current workload at a fixed reference allocation.
	AvgEstPerQuery float64
	// Measure returns the actual cost of the current workload under an
	// allocation.
	Measure func(a core.Allocation) (float64, error)
}

// TenantReport is the per-tenant outcome of one period.
type TenantReport struct {
	Change    ChangeClass
	Est, Act  float64
	Eip       float64 // relative modeling error
	Rebuilt   bool    // model was discarded and rebuilt from the optimizer
	Refined   bool    // an Act/Est refinement step was applied
	Converged bool
}

// PeriodReport is the outcome of one monitoring period.
type PeriodReport struct {
	Allocations []core.Allocation
	Tenants     []TenantReport
}

// Manager runs dynamic configuration management over N tenants.
type Manager struct {
	// Opts configures the advisor's enumerator. Opts.Parallelism and
	// Opts.Ctx thread straight through to every per-period re-run of the
	// advisor, so a manager driving many tenants can fan its what-if
	// estimations over all cores; reports are bit-identical across
	// Parallelism settings.
	Opts core.Options
	// ForceContinuous disables change classification, treating every
	// change as minor — the "continuous online refinement" baseline the
	// paper compares against in Figs. 35–36.
	ForceContinuous bool
	// Recommend optionally replaces the per-period advisor run. It
	// receives each tenant's current cost-model basis (the refined model,
	// or the fresh optimizer-backed estimator after a rebuild) and the
	// manager's options, and returns the allocations to deploy. A
	// cluster-level caller installs a hook here that re-places this
	// machine's tenants through the placement layer every period; nil
	// means the single-machine core.Recommend.
	Recommend func(ests []core.Estimator, opts core.Options) (*core.Result, error)
	// Metrics optionally counts rebuilds, refinement steps, and
	// convergences. The zero value reports nothing; counting never
	// changes a report.
	Metrics Metrics

	tenants []*tenantState
	ids     []string
	prev    []core.Allocation
	// mode locks the manager to positional or ID-keyed inputs after the
	// first period; switching midway would silently misattribute or drop
	// accumulated per-tenant state, so it is rejected instead.
	mode inputMode
}

type inputMode int

const (
	modeUnset inputMode = iota
	modePositional
	modeKeyed
)

type tenantState struct {
	model      *refine.Model
	prevAvg    float64
	prevErr    float64
	hasPrevErr bool
	converged  bool
}

// NewManager creates a manager for n tenants.
func NewManager(n int, opts core.Options) *Manager {
	m := &Manager{Opts: opts}
	for i := 0; i < n; i++ {
		m.tenants = append(m.tenants, &tenantState{})
	}
	return m
}

// Fresh reports whether the manager holds no accumulated state, exactly
// as NewManager(0, …) returns it: no tenants, no previous allocations,
// and no input mode locked by a completed period.
func (m *Manager) Fresh() bool {
	return m.mode == modeUnset && len(m.tenants) == 0 && len(m.prev) == 0
}

// State is an opaque deep snapshot of a manager's accumulated per-tenant
// state. A single Period call is already transactional on its own; the
// Snapshot/Restore pair extends that guarantee to callers coordinating
// several managers — the fleet orchestrator snapshots every machine's
// manager before a period and restores them all if any machine fails, so
// a fleet period commits everywhere or nowhere.
type State struct {
	tenants []*tenantState
	ids     []string
	prev    []core.Allocation
	mode    inputMode
}

// cloneTenants deep-copies per-tenant states (models included).
func cloneTenants(in []*tenantState) []*tenantState {
	out := make([]*tenantState, len(in))
	for i, ts := range in {
		c := *ts
		c.model = ts.model.Clone()
		out[i] = &c
	}
	return out
}

// Snapshot captures the manager's state; Restore returns to it.
func (m *Manager) Snapshot() *State {
	return &State{
		tenants: cloneTenants(m.tenants),
		ids:     append([]string(nil), m.ids...),
		prev:    cloneAllocs(m.prev),
		mode:    m.mode,
	}
}

// Restore rewinds the manager to a snapshot. The snapshot remains valid
// (restoring clones again), so one snapshot can back multiple retries.
func (m *Manager) Restore(s *State) {
	m.tenants = cloneTenants(s.tenants)
	m.ids = append([]string(nil), s.ids...)
	m.prev = cloneAllocs(s.prev)
	m.mode = s.mode
}

// reconciled is the tenant state computed from one period's inputs,
// validated but not yet committed: Period applies it only after all
// remaining input validation (advisorOpts) has also passed, so a
// rejected call never locks the manager's mode or drops state.
type reconciled struct {
	keyed     bool
	tenants   []*tenantState
	ids       []string
	resetPrev bool
}

// reconcile checks this period's inputs against the manager's mode and
// computes the reconciled per-tenant state. Positional inputs (no IDs)
// require a fixed tenant count; ID-carrying inputs may add tenants
// (fresh state) or remove them (state dropped). When the tenant set
// changes, the previous period's allocations must be forgotten —
// comparing allocation vectors of different tenant sets would be
// meaningless for the §5 convergence rule.
func (m *Manager) reconcile(inputs []PeriodInput) (reconciled, error) {
	withID := 0
	for _, in := range inputs {
		if in.ID != "" {
			withID++
		}
	}
	if withID == 0 {
		if m.mode == modeKeyed {
			return reconciled{}, errors.New("dynmgmt: manager has ID-keyed tenant state; inputs must keep carrying IDs")
		}
		if len(inputs) != len(m.tenants) {
			return reconciled{}, fmt.Errorf("dynmgmt: %d inputs for %d tenants", len(inputs), len(m.tenants))
		}
		return reconciled{tenants: m.tenants, ids: m.ids}, nil
	}
	if withID != len(inputs) {
		return reconciled{}, fmt.Errorf("dynmgmt: %d of %d inputs carry an ID; IDs are all-or-none", withID, len(inputs))
	}
	if m.mode == modePositional {
		return reconciled{}, errors.New("dynmgmt: manager has positional tenant state; attaching IDs midway would discard it")
	}
	byID := make(map[string]*tenantState, len(m.tenants))
	for i, id := range m.ids {
		if id != "" {
			byID[id] = m.tenants[i]
		}
	}
	r := reconciled{
		keyed:   true,
		tenants: make([]*tenantState, len(inputs)),
		ids:     make([]string, len(inputs)),
	}
	sameSet := len(inputs) == len(m.ids)
	seen := make(map[string]bool, len(inputs))
	for i, in := range inputs {
		if seen[in.ID] {
			return reconciled{}, fmt.Errorf("dynmgmt: duplicate tenant ID %q", in.ID)
		}
		seen[in.ID] = true
		r.ids[i] = in.ID
		if ts, ok := byID[in.ID]; ok {
			r.tenants[i] = ts
		} else {
			r.tenants[i] = &tenantState{}
		}
		if sameSet && m.ids[i] != in.ID {
			sameSet = false
		}
	}
	r.resetPrev = !sameSet
	return r, nil
}

// apply commits a reconciled state once the period has succeeded: the
// manager's mode locks on the first completed period. (Period overwrites
// m.prev with the fresh allocations right after, so resetPrev needs no
// handling here.)
func (m *Manager) apply(r reconciled) {
	if r.keyed {
		m.mode = modeKeyed
		m.tenants = r.tenants
		m.ids = r.ids
	} else {
		m.mode = modePositional
	}
}

// advisorOpts shapes this period's enumerator options. Positional
// managers without per-input QoS use Opts verbatim (the original,
// fixed-tenant-set contract). As soon as inputs carry QoS — or the
// manager is ID-keyed, where the tenant set may change size and order —
// Gains and Limits are rebuilt from the inputs each period, and mixing
// the two QoS channels is rejected rather than silently misassigned.
func (m *Manager) advisorOpts(inputs []PeriodInput, keyed bool) (core.Options, error) {
	opts := m.Opts
	anyQoS := false
	for _, in := range inputs {
		if in.Gain != 0 || in.Limit != 0 {
			anyQoS = true
			break
		}
	}
	positionalQoS := opts.Gains != nil || opts.Limits != nil
	if keyed && positionalQoS {
		return opts, errors.New("dynmgmt: ID-keyed inputs cannot use positional Opts.Gains/Limits; set Gain/Limit on each PeriodInput")
	}
	if anyQoS && positionalQoS {
		return opts, errors.New("dynmgmt: set QoS either on Opts.Gains/Limits or on PeriodInput, not both")
	}
	if !anyQoS {
		return opts, nil
	}
	n := len(inputs)
	opts.Gains = make([]float64, n)
	opts.Limits = make([]float64, n)
	for i, in := range inputs {
		// Values in (0,1) are always a caller bug (core rejects them on
		// the positional channel); only the 0 zero-value means "default".
		if in.Gain != 0 && in.Gain < 1 {
			return opts, fmt.Errorf("dynmgmt: input %d gain %v < 1", i, in.Gain)
		}
		if in.Limit != 0 && in.Limit < 1 {
			return opts, fmt.Errorf("dynmgmt: input %d degradation limit %v < 1", i, in.Limit)
		}
		opts.Gains[i] = 1
		if in.Gain >= 1 {
			opts.Gains[i] = in.Gain
		}
		opts.Limits[i] = math.Inf(1)
		if in.Limit >= 1 {
			opts.Limits[i] = in.Limit
		}
	}
	return opts, nil
}

// Period processes one monitoring period end: classify changes, pick the
// per-tenant cost-model basis, re-run the advisor, deploy, measure, and
// refine. The first call is the initial recommendation (everything is
// built from the optimizer).
//
// Period is transactional: a failure anywhere mid-period (advisor error,
// measurement error, model rebuild error) restores every tenant's
// classification state and cost model to their pre-call values, so the
// manager is fully retryable — the failed period deployed nothing.
func (m *Manager) Period(inputs []PeriodInput) (*PeriodReport, error) {
	return m.period(inputs, true)
}

// PeriodNoSnapshot is Period without the internal per-tenant snapshot:
// the deferred-rollback variant for callers that already hold a manager
// Snapshot — the fleet orchestrator snapshots every machine before a
// period, so the per-Period snapshot would clone every refined model a
// second time for nothing. On error the manager's per-tenant state may be
// partially advanced; the caller MUST Restore its snapshot before
// retrying or continuing. On success the two variants are identical.
func (m *Manager) PeriodNoSnapshot(inputs []PeriodInput) (*PeriodReport, error) {
	return m.period(inputs, false)
}

func (m *Manager) period(inputs []PeriodInput, guard bool) (*PeriodReport, error) {
	rec, err := m.reconcile(inputs)
	if err != nil {
		return nil, err
	}
	opts, err := m.advisorOpts(inputs, rec.keyed)
	if err != nil {
		return nil, err
	}
	// The reconciled tenant set is committed only after the period
	// succeeds: a mid-period failure (advisor error, measure error) must
	// not drop a removed tenant's accumulated state — the failed period
	// deployed nothing, so the caller may retry with the old set.
	// Survivor tenantStates are shared pointers, so every per-tenant
	// field this period mutates (classification in step 1, models and
	// error history in step 3) is snapshotted here and restored on any
	// failure — unless the caller holds its own Snapshot and asked for the
	// deferred-rollback variant.
	tenants := rec.tenants
	if guard {
		snaps := make([]tenantState, len(tenants))
		for i, ts := range tenants {
			snaps[i] = *ts
			snaps[i].model = ts.model.Clone()
		}
		committed := false
		defer func() {
			if committed {
				return
			}
			for i, ts := range tenants {
				*ts = snaps[i]
			}
		}()
		rep, err := m.periodLocked(inputs, rec, opts)
		if err == nil {
			committed = true
		}
		return rep, err
	}
	return m.periodLocked(inputs, rec, opts)
}

// periodLocked is the period body proper; any error may leave per-tenant
// state partially advanced (the callers above decide who rolls back).
func (m *Manager) periodLocked(inputs []PeriodInput, rec reconciled, opts core.Options) (*PeriodReport, error) {
	tenants := rec.tenants
	prev := m.prev
	if rec.resetPrev {
		prev = nil
	}
	n := len(inputs)
	report := &PeriodReport{Tenants: make([]TenantReport, n)}

	// 1. Classify changes via the §6.1 metric.
	for i, in := range inputs {
		ts := tenants[i]
		tr := &report.Tenants[i]
		switch {
		case ts.prevAvg == 0:
			tr.Change = ChangeNone // first period: nothing to compare
		default:
			rel := math.Abs(in.AvgEstPerQuery-ts.prevAvg) / ts.prevAvg
			switch {
			case rel > tau && !m.ForceContinuous:
				tr.Change = ChangeMajor
			case rel > 1e-9:
				tr.Change = ChangeMinor
			default:
				tr.Change = ChangeNone
			}
		}
		ts.prevAvg = in.AvgEstPerQuery

		if tr.Change == ChangeMajor {
			// §6.2: discard the refined model; restart from the optimizer.
			// (prevErr/hasPrevErr need no reset: step 3 unconditionally
			// records this period's E_ip for every tenant.)
			ts.model = nil
			ts.converged = false
			tr.Rebuilt = true
			m.Metrics.Rebuilds.Inc()
		}
		if tr.Change != ChangeNone {
			ts.converged = false
		}
	}

	// 2. Re-run the advisor over each tenant's current basis.
	ests := make([]core.Estimator, n)
	for i, in := range inputs {
		if tenants[i].model != nil {
			ests[i] = tenants[i].model
		} else {
			ests[i] = in.Estimator
		}
	}
	advisor := m.Recommend
	if advisor == nil {
		advisor = core.Recommend
	}
	res, err := advisor(ests, opts)
	if err != nil {
		return nil, err
	}
	report.Allocations = res.Allocations

	// 3. Deploy, measure, and refine.
	for i, in := range inputs {
		ts := tenants[i]
		tr := &report.Tenants[i]
		a := res.Allocations[i]
		act, err := in.Measure(a)
		if err != nil {
			return nil, fmt.Errorf("dynmgmt: measuring tenant %d: %w", i, err)
		}
		tr.Act = act
		tr.Est = res.Costs[i]
		if act > 0 {
			tr.Eip = math.Abs(tr.Est-act) / act
		}

		if ts.model == nil {
			// Fresh build from this period's enumeration samples, plus the
			// "additional refinement step" with the observed actual (§6.2).
			md, err := refine.NewModel(res.Samples[i], m.Opts.Resources)
			if err != nil {
				return nil, fmt.Errorf("dynmgmt: rebuilding tenant %d: %w", i, err)
			}
			ts.model = md
			if _, err := md.Observe(a, act); err != nil {
				return nil, err
			}
			tr.Refined = true
			m.Metrics.Refinements.Inc()
		} else {
			refineOK := true
			if !ts.converged && ts.hasPrevErr {
				// §6.2 guard: continue refinement only if errors are small
				// or decreasing. The guard applies to every unconverged
				// refinement step, not just minor changes: an unchanged
				// workload whose model extrapolated badly (large, growing
				// E_ip) must also fall back to the optimizer instead of
				// oscillating on Act/Est corrections.
				small := ts.prevErr < errThreshold && tr.Eip < errThreshold
				decreasing := tr.Eip < ts.prevErr
				if !small && !decreasing && !m.ForceContinuous {
					// Conservatively treat as major: discard; rebuild next
					// period from the optimizer. (prevErr/hasPrevErr are
					// recorded unconditionally below.)
					ts.model = nil
					ts.converged = false
					tr.Rebuilt = true
					m.Metrics.Rebuilds.Inc()
					refineOK = false
				}
			}
			if refineOK && !ts.converged {
				if _, err := ts.model.Observe(a, act); err != nil {
					return nil, err
				}
				tr.Refined = true
				m.Metrics.Refinements.Inc()
			}
		}
		ts.prevErr = tr.Eip
		ts.hasPrevErr = true
	}

	// 4. Convergence: a repeated recommendation means refinement has
	// settled (§5's stopping rule), so observation pauses until the next
	// detected change.
	if prev != nil && sameAllocs(prev, res.Allocations) {
		for i := range tenants {
			tenants[i].converged = true
			report.Tenants[i].Converged = true
		}
		m.Metrics.Convergences.Add(uint64(len(tenants)))
	}
	m.apply(rec)
	m.prev = cloneAllocs(res.Allocations)
	return report, nil
}

func cloneAllocs(in []core.Allocation) []core.Allocation {
	out := make([]core.Allocation, len(in))
	for i, a := range in {
		out[i] = a.Clone()
	}
	return out
}

func sameAllocs(a, b []core.Allocation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if d := a[i][j] - b[i][j]; d > 1e-9 || d < -1e-9 {
				return false
			}
		}
	}
	return true
}
