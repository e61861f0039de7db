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
	// ID identifies the tenant across periods. Every input carries one,
	// unique within the period, and the manager keys its per-tenant state
	// by it, so the tenant set may change between periods — the
	// fleet-level case where a placement layer moves tenants on and off a
	// machine. A newly appearing ID starts with first-period semantics
	// (no change to classify, model built fresh from the optimizer); a
	// disappearing ID's state is dropped.
	ID string
	// Gain and Limit optionally carry the tenant's QoS settings (the §3
	// gain factor G_i ≥ 1 and degradation limit L_i ≥ 1; zero means
	// default). They are the manager's only QoS channel: a positional
	// Opts.Gains/Limits vector could not follow a tenant set that changes
	// between periods, so the manager rejects one.
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

// Manager runs dynamic configuration management over one machine's
// tenants, keyed by tenant ID.
type Manager struct {
	// Opts configures the advisor's enumerator. Opts.Parallelism and
	// Opts.Ctx thread straight through to every per-period re-run of the
	// advisor, so a manager driving many tenants can fan its what-if
	// estimations over all cores; reports are bit-identical across
	// Parallelism settings. Opts.Gains and Opts.Limits must be nil: QoS
	// rides on each PeriodInput, and each period's advisor run builds
	// them from its inputs.
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

	// tenants is the last committed period's tenant set, in its input
	// order; prev holds that period's deployed allocations.
	tenants []*tenantState
	prev    []core.Allocation
}

type tenantState struct {
	id         string
	model      *refine.Model
	prevAvg    float64
	prevErr    float64
	hasPrevErr bool
	converged  bool
}

// NewManager creates a manager with no tenants: each period's inputs
// name them.
func NewManager(opts core.Options) *Manager {
	return &Manager{Opts: opts}
}

// Fresh reports whether the manager holds no accumulated state, exactly
// as NewManager returns it: no tenants and no previous allocations.
func (m *Manager) Fresh() bool {
	return len(m.tenants) == 0 && len(m.prev) == 0
}

// State is an opaque deep snapshot of a manager's accumulated per-tenant
// state. Period rolls a failed period back through it; callers
// coordinating several managers use the pair directly — the fleet
// orchestrator snapshots every recomputing machine's manager before a
// period and restores them all if any machine fails, so a fleet period
// commits everywhere or nowhere.
type State struct {
	tenants []*tenantState
	prev    []core.Allocation
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
		prev:    refine.CloneAllocs(m.prev),
	}
}

// Restore rewinds the manager to a snapshot. The snapshot remains valid
// (restoring clones again), so one snapshot can back multiple retries.
func (m *Manager) Restore(s *State) {
	m.tenants = cloneTenants(s.tenants)
	m.prev = refine.CloneAllocs(s.prev)
}

// reconciled is the tenant set computed from one period's inputs,
// validated but not yet committed: periodLocked installs it only once
// the period has succeeded.
type reconciled struct {
	tenants   []*tenantState
	resetPrev bool
}

// reconcile checks this period's inputs — at least one, each with a
// non-empty ID unique within the period — and computes the period's
// tenant set: a known ID keeps its state, a new one starts fresh, and
// an absent one is dropped. When the tenant set changes, the previous
// period's allocations must be forgotten — comparing allocation vectors
// of different tenant sets would be meaningless for the §5 convergence
// rule.
func (m *Manager) reconcile(inputs []PeriodInput) (reconciled, error) {
	if len(inputs) == 0 {
		return reconciled{}, errors.New("dynmgmt: a period needs at least one tenant input")
	}
	byID := make(map[string]*tenantState, len(m.tenants))
	for _, ts := range m.tenants {
		byID[ts.id] = ts
	}
	r := reconciled{tenants: make([]*tenantState, len(inputs))}
	sameSet := len(inputs) == len(m.tenants)
	seen := make(map[string]bool, len(inputs))
	for i, in := range inputs {
		if in.ID == "" {
			return reconciled{}, fmt.Errorf("dynmgmt: input %d has no tenant ID", i)
		}
		if seen[in.ID] {
			return reconciled{}, fmt.Errorf("dynmgmt: duplicate tenant ID %q", in.ID)
		}
		seen[in.ID] = true
		ts, ok := byID[in.ID]
		if !ok {
			ts = &tenantState{id: in.ID}
		}
		r.tenants[i] = ts
		if sameSet && m.tenants[i].id != in.ID {
			sameSet = false
		}
	}
	r.resetPrev = !sameSet
	return r, nil
}

// advisorOpts shapes this period's enumerator options: Opts verbatim,
// with Gains and Limits built from the inputs when any input sets QoS.
func (m *Manager) advisorOpts(inputs []PeriodInput) (core.Options, error) {
	opts := m.Opts
	if opts.Gains != nil || opts.Limits != nil {
		return opts, errors.New("dynmgmt: QoS rides on each PeriodInput, not on Opts.Gains/Limits")
	}
	anyQoS := false
	for _, in := range inputs {
		if in.Gain != 0 || in.Limit != 0 {
			anyQoS = true
			break
		}
	}
	if !anyQoS {
		return opts, nil
	}
	n := len(inputs)
	opts.Gains = make([]float64, n)
	opts.Limits = make([]float64, n)
	for i, in := range inputs {
		// Values in (0,1) are always a caller bug (core rejects them in
		// Options); only the 0 zero-value means "default".
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
// refine. A tenant's first period is its initial recommendation (its
// model is built from the optimizer).
//
// Period is transactional: it is PeriodNoSnapshot between a Snapshot and,
// on any failure (invalid input, advisor error, measurement error, model
// rebuild error), a Restore — so the manager is fully retryable, and the
// failed period deployed nothing.
func (m *Manager) Period(inputs []PeriodInput) (*PeriodReport, error) {
	s := m.Snapshot()
	rep, err := m.PeriodNoSnapshot(inputs)
	if err != nil {
		m.Restore(s)
	}
	return rep, err
}

// PeriodNoSnapshot is Period without its rollback, for callers that
// already hold a manager Snapshot — the fleet orchestrator snapshots
// every machine before a period, so a second snapshot per Period would
// clone every refined model again for nothing. Invalid inputs are
// rejected before anything changes; a later failure may leave
// per-tenant state partially advanced, and the caller MUST Restore its
// snapshot before retrying or continuing. On success the two are
// identical.
func (m *Manager) PeriodNoSnapshot(inputs []PeriodInput) (*PeriodReport, error) {
	rec, err := m.reconcile(inputs)
	if err != nil {
		return nil, err
	}
	opts, err := m.advisorOpts(inputs)
	if err != nil {
		return nil, err
	}
	return m.periodLocked(inputs, rec, opts)
}

// periodLocked is the period body proper. Survivors' tenant states are
// shared with the committed set and advanced in place, so an error may
// leave them partially advanced; the tenant set and the previous
// allocations are committed only at the end.
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
	if prev != nil && refine.SameAllocs(prev, res.Allocations) {
		for i := range tenants {
			tenants[i].converged = true
			report.Tenants[i].Converged = true
		}
		m.Metrics.Convergences.Add(uint64(len(tenants)))
	}
	m.tenants = rec.tenants
	m.prev = refine.CloneAllocs(res.Allocations)
	return report, nil
}
