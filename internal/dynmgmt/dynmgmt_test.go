package dynmgmt

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
)

// scenario models two tenants whose true costs the optimizer misjudges by
// a per-tenant factor; the test driver can swap workloads (major change)
// or scale intensity (minor change).
type scenario struct {
	// trueAlpha is the real CPU appetite; estAlpha what the optimizer
	// believes.
	trueAlpha []float64
	estAlpha  []float64
	intensity []float64
}

func (sc *scenario) input(i int) PeriodInput {
	est := sc.estAlpha[i] * sc.intensity[i]
	truth := sc.trueAlpha[i] * sc.intensity[i]
	return PeriodInput{
		ID: fmt.Sprintf("t%d", i),
		Estimator: core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
			return est/a[0] + 2/a[1], "p", nil
		}),
		AvgEstPerQuery: est,
		Measure: func(a core.Allocation) (float64, error) {
			return truth/a[0] + 2/a[1], nil
		},
	}
}

func (sc *scenario) inputs() []PeriodInput {
	return []PeriodInput{sc.input(0), sc.input(1)}
}

func newScenario() *scenario {
	return &scenario{
		trueAlpha: []float64{30, 60},
		estAlpha:  []float64{30, 20}, // tenant 1 underestimated
		intensity: []float64{1, 1},
	}
}

func TestFirstPeriodBuildsFromOptimizer(t *testing.T) {
	sc := newScenario()
	m := NewManager(core.Options{Delta: 0.05})
	rep, err := m.Period(sc.inputs())
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range rep.Tenants {
		if tr.Change != ChangeNone {
			t.Errorf("tenant %d first period change = %v", i, tr.Change)
		}
		if !tr.Refined {
			t.Errorf("tenant %d should have been refined", i)
		}
	}
	if len(rep.Allocations) != 2 {
		t.Fatal("allocations missing")
	}
}

func TestStableWorkloadConvergesAndStopsRefining(t *testing.T) {
	sc := newScenario()
	sc.estAlpha = sc.trueAlpha // perfect optimizer
	m := NewManager(core.Options{Delta: 0.05})
	var last *PeriodReport
	for p := 0; p < 4; p++ {
		rep, err := m.Period(sc.inputs())
		if err != nil {
			t.Fatal(err)
		}
		last = rep
	}
	if !last.Tenants[0].Converged {
		t.Fatalf("stable workload should converge: %+v", last.Tenants[0])
	}
}

func TestMinorChangesHandledByRefinement(t *testing.T) {
	sc := newScenario()
	m := NewManager(core.Options{Delta: 0.05})
	if _, err := m.Period(sc.inputs()); err != nil {
		t.Fatal(err)
	}
	sc.intensity[1] *= 1.05 // 5% < τ: minor
	rep, err := m.Period(sc.inputs())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenants[1].Change != ChangeMinor {
		t.Fatalf("expected minor change, got %v", rep.Tenants[1].Change)
	}
	if rep.Tenants[1].Rebuilt {
		t.Fatal("minor change must not rebuild the model")
	}
}

func TestMajorChangeDiscardsModel(t *testing.T) {
	sc := newScenario()
	m := NewManager(core.Options{Delta: 0.05})
	if _, err := m.Period(sc.inputs()); err != nil {
		t.Fatal(err)
	}
	// Swap the two workloads: per-query estimates jump far beyond τ.
	sc.trueAlpha[0], sc.trueAlpha[1] = sc.trueAlpha[1], sc.trueAlpha[0]
	sc.estAlpha[0], sc.estAlpha[1] = sc.estAlpha[1], sc.estAlpha[0]
	rep, err := m.Period(sc.inputs())
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range rep.Tenants {
		if tr.Change != ChangeMajor {
			t.Errorf("tenant %d: change %v, want major", i, tr.Change)
		}
		if !tr.Rebuilt {
			t.Errorf("tenant %d: model should have been rebuilt", i)
		}
	}
}

func TestForceContinuousNeverRebuilds(t *testing.T) {
	sc := newScenario()
	m := NewManager(core.Options{Delta: 0.05})
	m.ForceContinuous = true
	if _, err := m.Period(sc.inputs()); err != nil {
		t.Fatal(err)
	}
	sc.trueAlpha[0], sc.trueAlpha[1] = sc.trueAlpha[1], sc.trueAlpha[0]
	sc.estAlpha[0], sc.estAlpha[1] = sc.estAlpha[1], sc.estAlpha[0]
	rep, err := m.Period(sc.inputs())
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range rep.Tenants {
		if tr.Rebuilt {
			t.Errorf("tenant %d rebuilt under ForceContinuous", i)
		}
	}
}

// The headline §7.10 behaviour: after a major change (workload swap),
// dynamic management recovers the right allocation within a period or two,
// because it rebuilds from the optimizer rather than dragging a stale
// refined model.
func TestSwapRecovery(t *testing.T) {
	sc := newScenario()
	m := NewManager(core.Options{Delta: 0.05})
	for p := 0; p < 3; p++ {
		if _, err := m.Period(sc.inputs()); err != nil {
			t.Fatal(err)
		}
	}
	// Tenant 1 is truly hungrier; refinement should have discovered that.
	sc.trueAlpha[0], sc.trueAlpha[1] = sc.trueAlpha[1], sc.trueAlpha[0]
	sc.estAlpha[0], sc.estAlpha[1] = sc.estAlpha[1], sc.estAlpha[0]
	var rep *PeriodReport
	var err error
	for p := 0; p < 3; p++ {
		rep, err = m.Period(sc.inputs())
		if err != nil {
			t.Fatal(err)
		}
	}
	if rep.Allocations[0][0] <= rep.Allocations[1][0] {
		t.Fatalf("after swap, tenant 0 should hold more CPU: %v", rep.Allocations)
	}
}

func TestChangeClassString(t *testing.T) {
	for c, want := range map[ChangeClass]string{ChangeNone: "none", ChangeMinor: "minor", ChangeMajor: "major", 7: "?"} {
		if got := c.String(); got != want {
			t.Fatalf("ChangeClass(%d).String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestPeriodInputValidation(t *testing.T) {
	m := NewManager(core.Options{})
	if _, err := m.Period(nil); err == nil {
		t.Fatal("a period without inputs should error")
	}
}

// synthInput builds one keyed tenant input with an inverse-linear true
// cost; avg doubles as the §6.1 per-query estimate metric.
func synthInput(id string, avg float64) PeriodInput {
	return PeriodInput{
		ID: id,
		Estimator: core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
			return avg/a[0] + 2/a[1], "p", nil
		}),
		AvgEstPerQuery: avg,
		Measure: func(a core.Allocation) (float64, error) {
			return avg/a[0] + 2/a[1], nil
		},
	}
}

// A tenant appearing mid-run (the placement layer moved it onto this
// machine) must get first-period semantics — nothing to classify, model
// built fresh — while existing tenants keep their classification state.
func TestTenantAddedBetweenPeriods(t *testing.T) {
	m := NewManager(core.Options{Delta: 0.05})
	base := []PeriodInput{synthInput("a", 30), synthInput("b", 20)}
	for p := 0; p < 2; p++ {
		if _, err := m.Period(base); err != nil {
			t.Fatal(err)
		}
	}
	// Period 3: tenant c joins, and tenant a's workload jumps far past τ.
	rep, err := m.Period([]PeriodInput{synthInput("a", 60), synthInput("b", 20), synthInput("c", 40)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Allocations) != 3 {
		t.Fatalf("want 3 allocations, got %d", len(rep.Allocations))
	}
	if got := rep.Tenants[2].Change; got != ChangeNone {
		t.Fatalf("new tenant change = %v, want none (first period)", got)
	}
	if !rep.Tenants[2].Refined {
		t.Fatal("new tenant must be built fresh and refined")
	}
	if got := rep.Tenants[0].Change; got != ChangeMajor {
		t.Fatalf("tenant a change = %v, want major: its state must survive the resize", got)
	}
	if got := rep.Tenants[1].Change; got != ChangeNone {
		t.Fatalf("tenant b change = %v, want none", got)
	}
}

// State follows the tenant ID, not the input's position: the same
// tenants in another order keep their classification state and models,
// but the previous period's allocation vector no longer lines up, so
// the §5 convergence test starts over.
func TestTenantReorderKeepsStateByID(t *testing.T) {
	m := NewManager(core.Options{Delta: 0.05})
	ab := []PeriodInput{synthInput("a", 30), synthInput("b", 20)}
	var last *PeriodReport
	for p := 0; p < 4; p++ {
		rep, err := m.Period(ab)
		if err != nil {
			t.Fatal(err)
		}
		last = rep
	}
	if !last.Tenants[0].Converged {
		t.Fatal("setup: stable workload should have converged")
	}
	rep, err := m.Period([]PeriodInput{ab[1], ab[0]})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 0} {
		tr := rep.Tenants[i]
		if tr.Change != ChangeNone || tr.Rebuilt || tr.Refined {
			t.Fatalf("tenant %s lost its state in the reorder: %+v", ab[want].ID, tr)
		}
		if tr.Converged {
			t.Fatalf("tenant %s: a reordered period has no previous allocations to repeat", ab[want].ID)
		}
		if !reflect.DeepEqual(rep.Allocations[i], last.Allocations[want]) {
			t.Fatalf("tenant %s moved from %v to %v", ab[want].ID, last.Allocations[want], rep.Allocations[i])
		}
	}
}

// A tenant leaving mid-run must drop its state; survivors keep theirs,
// and a tenant re-appearing later is treated as brand new.
func TestTenantRemovedBetweenPeriods(t *testing.T) {
	m := NewManager(core.Options{Delta: 0.05})
	if _, err := m.Period([]PeriodInput{synthInput("a", 30), synthInput("b", 20), synthInput("c", 40)}); err != nil {
		t.Fatal(err)
	}
	// Tenant c leaves; tenant a shifts slightly (minor).
	rep, err := m.Period([]PeriodInput{synthInput("a", 31.5), synthInput("b", 20)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Allocations) != 2 {
		t.Fatalf("want 2 allocations, got %d", len(rep.Allocations))
	}
	if got := rep.Tenants[0].Change; got != ChangeMinor {
		t.Fatalf("tenant a change = %v, want minor: survivor state must persist", got)
	}
	// Tenant c returns: its old state is gone, so nothing to classify.
	rep, err = m.Period([]PeriodInput{synthInput("a", 31.5), synthInput("b", 20), synthInput("c", 400)})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Tenants[2].Change; got != ChangeNone {
		t.Fatalf("re-added tenant change = %v, want none (state was dropped)", got)
	}
}

// A byte-for-byte unchanged workload must classify as ChangeNone, and
// once refinement has converged the manager must stop observing — the
// steady-state short-circuit.
func TestUnchangedWorkloadShortCircuit(t *testing.T) {
	m := NewManager(core.Options{Delta: 0.05})
	inputs := []PeriodInput{synthInput("a", 30), synthInput("b", 20)}
	var rep *PeriodReport
	var err error
	for p := 0; p < 4; p++ {
		rep, err = m.Period(inputs)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, tr := range rep.Tenants {
		if tr.Change != ChangeNone {
			t.Fatalf("tenant %d: unchanged workload classified %v", i, tr.Change)
		}
		if !tr.Converged {
			t.Fatalf("tenant %d: stable workload should have converged", i)
		}
	}
	// Post-convergence period: no model rebuild, no refinement step.
	rep, err = m.Period(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range rep.Tenants {
		if tr.Rebuilt || tr.Refined {
			t.Fatalf("tenant %d: converged steady state must short-circuit (rebuilt=%v refined=%v)",
				i, tr.Rebuilt, tr.Refined)
		}
	}
}

// With a changing tenant set, QoS must ride on the inputs so it follows
// the tenant, not the slot: a per-input limit is honored across a set
// change, and positional Opts vectors are rejected.
func TestPeriodQoSFollowsTenantID(t *testing.T) {
	m := NewManager(core.Options{Delta: 0.05})
	limited := func(avg float64) PeriodInput {
		in := synthInput("b", avg)
		in.Limit = 2
		return in
	}
	inputs := []PeriodInput{synthInput("a", 30), limited(30), synthInput("c", 40)}
	if _, err := m.Period(inputs); err != nil {
		t.Fatal(err)
	}
	// Tenant c leaves: a 2-tenant period must still work (positional
	// Gains/Limits sized for 3 would have failed here) and b's limit
	// must still bind to b.
	rep, err := m.Period([]PeriodInput{synthInput("a", 30), limited(30)})
	if err != nil {
		t.Fatal(err)
	}
	dedicated := 30.0 + 2.0 // avg/1 + 2/1 at the full allocation
	if deg := rep.Tenants[1].Est / dedicated; deg > 2+1e-9 {
		t.Fatalf("tenant b degraded %vx past its travelling limit", deg)
	}
	// Positional QoS vectors cannot follow IDs: reject them, whether or
	// not the inputs carry QoS too, and commit nothing. The same holds for
	// per-input values below 1.
	for _, tc := range []struct {
		name   string
		opts   core.Options
		inputs []PeriodInput
	}{
		{"Opts.Limits", core.Options{Delta: 0.05, Limits: []float64{2, 1e308}},
			[]PeriodInput{synthInput("a", 30), synthInput("b", 20)}},
		{"Opts.Gains", core.Options{Delta: 0.05, Gains: []float64{2, 1}},
			[]PeriodInput{synthInput("a", 30), synthInput("b", 20)}},
		{"Opts.Limits beside input QoS", core.Options{Delta: 0.05, Limits: []float64{2, 1e308}},
			[]PeriodInput{synthInput("a", 30), limited(20)}},
		{"input gain below 1", core.Options{Delta: 0.05},
			[]PeriodInput{synthInput("a", 30), {ID: "b", Gain: 0.5}}},
		{"input limit below 1", core.Options{Delta: 0.05},
			[]PeriodInput{synthInput("a", 30), {ID: "b", Limit: 0.5}}},
	} {
		mq := NewManager(tc.opts)
		if _, err := mq.Period(tc.inputs); err == nil {
			t.Fatalf("%s: should be rejected", tc.name)
		}
		if !mq.Fresh() {
			t.Fatalf("%s: a rejected period left state behind", tc.name)
		}
	}
}

// Every input must carry a non-empty ID, unique within the period; a
// rejected call commits nothing.
func TestPeriodIDValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inputs []PeriodInput
	}{
		{"missing ID", []PeriodInput{synthInput("a", 30), synthInput("", 20)}},
		{"no IDs", []PeriodInput{synthInput("", 30), synthInput("", 20)}},
		{"duplicate ID", []PeriodInput{synthInput("a", 30), synthInput("a", 20)}},
	} {
		m := NewManager(core.Options{Delta: 0.05})
		if _, err := m.Period(tc.inputs); err == nil {
			t.Fatalf("%s: should error", tc.name)
		}
		if !m.Fresh() {
			t.Fatalf("%s: a rejected period left state behind", tc.name)
		}
		if _, err := m.PeriodNoSnapshot(tc.inputs); err == nil {
			t.Fatalf("%s: PeriodNoSnapshot should error", tc.name)
		}
		if !m.Fresh() {
			t.Fatalf("%s: a rejected PeriodNoSnapshot left state behind", tc.name)
		}
	}
}

// A period that fails mid-run (measure error) must not commit the
// reconciled tenant set: a tenant absent from the failed inputs keeps
// its accumulated state, since the failed period deployed nothing and
// the caller will retry with the old set.
func TestFailedPeriodPreservesTenantSet(t *testing.T) {
	m := NewManager(core.Options{Delta: 0.05})
	full := []PeriodInput{synthInput("a", 30), synthInput("b", 20), synthInput("c", 40)}
	for p := 0; p < 2; p++ {
		if _, err := m.Period(full); err != nil {
			t.Fatal(err)
		}
	}
	// Try to migrate c away, but the period fails at measurement.
	bad := synthInput("a", 30)
	bad.Measure = func(a core.Allocation) (float64, error) {
		return 0, fmt.Errorf("transient measurement failure")
	}
	if _, err := m.Period([]PeriodInput{bad, synthInput("b", 20)}); err == nil {
		t.Fatal("failing Measure must surface an error")
	}
	// Retry with the old set: c's state must have survived, so doubling
	// its per-query estimate classifies as a major change — a dropped
	// state would classify ChangeNone (first period).
	rep, err := m.Period([]PeriodInput{synthInput("a", 30), synthInput("b", 20), synthInput("c", 80)})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Tenants[2].Change; got != ChangeMajor {
		t.Fatalf("tenant c change = %v, want major: its state must survive the failed period", got)
	}
}

// Failure injection for the transactional Period: a period that fails at
// measurement — after step 1 already classified changes and step 3
// already refined an earlier tenant's model — must restore every
// tenant's classification state and cost model, so a retry behaves as if
// the failed call never happened.
func TestFailedPeriodRestoresClassificationState(t *testing.T) {
	m := NewManager(core.Options{Delta: 0.05})
	inputs := []PeriodInput{synthInput("a", 30), synthInput("b", 20)}
	for p := 0; p < 2; p++ {
		if _, err := m.Period(inputs); err != nil {
			t.Fatal(err)
		}
	}
	// Period 3: tenant a's workload doubles (major change, model
	// discarded in step 1; then measured and its fresh model refined in
	// step 3) but tenant b's measurement fails afterwards.
	badB := synthInput("b", 20)
	badB.Measure = func(a core.Allocation) (float64, error) {
		return 0, fmt.Errorf("transient measurement failure")
	}
	if _, err := m.Period([]PeriodInput{synthInput("a", 60), badB}); err == nil {
		t.Fatal("failing Measure must surface an error")
	}
	// Retry with the same inputs: a's prevAvg must still be 30, so the
	// doubled estimate classifies ChangeMajor again. Without the rollback
	// the failed call already advanced prevAvg to 60 and the retry would
	// see no change at all.
	rep, err := m.Period([]PeriodInput{synthInput("a", 60), synthInput("b", 20)})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Tenants[0].Change; got != ChangeMajor {
		t.Fatalf("retry classified %v, want major: classification state leaked from the failed period", got)
	}
	if !rep.Tenants[0].Rebuilt {
		t.Fatal("retry must rebuild tenant a's model")
	}
	if got := rep.Tenants[1].Change; got != ChangeNone {
		t.Fatalf("tenant b classified %v, want none", got)
	}
}

// The same rollback must cover advisor failures (step 2) — including the
// refined models already scaled by step 1's rebuild decisions — and a
// converged manager interrupted by a failure must stay converged.
func TestFailedPeriodRestoresModels(t *testing.T) {
	m := NewManager(core.Options{Delta: 0.05})
	inputs := []PeriodInput{synthInput("a", 30), synthInput("b", 20)}
	var last *PeriodReport
	for p := 0; p < 4; p++ {
		rep, err := m.Period(inputs)
		if err != nil {
			t.Fatal(err)
		}
		last = rep
	}
	if !last.Tenants[0].Converged {
		t.Fatal("setup: stable workload should have converged")
	}
	// A failing advisor run aborts the period after step 1 reset the
	// converged flags (the inputs drifted slightly).
	m.Recommend = func(ests []core.Estimator, opts core.Options) (*core.Result, error) {
		return nil, fmt.Errorf("injected advisor failure")
	}
	drifted := []PeriodInput{synthInput("a", 31), synthInput("b", 20)}
	if _, err := m.Period(drifted); err == nil {
		t.Fatal("failing advisor must surface an error")
	}
	m.Recommend = nil
	// Retry: the drift must classify minor again (prevAvg rolled back)
	// and refinement must pick up from the restored models.
	rep, err := m.Period(drifted)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Tenants[0].Change; got != ChangeMinor {
		t.Fatalf("retry classified %v, want minor", got)
	}
	if rep.Tenants[0].Rebuilt {
		t.Fatal("minor drift must refine the restored model, not rebuild it")
	}
}

// The Recommend hook lets a placement layer supply each period's
// allocations; the manager must route every per-period advisor run
// through it.
func TestPeriodRecommendHook(t *testing.T) {
	m := NewManager(core.Options{Delta: 0.05})
	calls := 0
	m.Recommend = func(ests []core.Estimator, opts core.Options) (*core.Result, error) {
		calls++
		return core.Recommend(ests, opts)
	}
	sc := newScenario()
	for p := 0; p < 3; p++ {
		if _, err := m.Period(sc.inputs()); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 3 {
		t.Fatalf("hook ran %d times for 3 periods", calls)
	}
}

// A manager run with Opts.Parallelism > 1 must produce exactly the same
// period-by-period allocations as a sequential one — the per-period
// advisor re-runs are bit-identical across parallelism settings.
func TestPeriodParallelParity(t *testing.T) {
	run := func(parallelism int) []*PeriodReport {
		sc := newScenario()
		m := NewManager(core.Options{Delta: 0.05, Parallelism: parallelism})
		var reports []*PeriodReport
		for p := 0; p < 5; p++ {
			if p == 2 {
				sc.intensity[0] = 1.05 // minor change mid-run
			}
			rep, err := m.Period(sc.inputs())
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, rep)
		}
		return reports
	}
	seq := run(1)
	par := run(8)
	for p := range seq {
		for i := range seq[p].Allocations {
			for j := range seq[p].Allocations[i] {
				if seq[p].Allocations[i][j] != par[p].Allocations[i][j] {
					t.Fatalf("period %d tenant %d: allocations diverge: %v vs %v",
						p, i, seq[p].Allocations[i], par[p].Allocations[i])
				}
			}
		}
	}
}

// PeriodNoSnapshot must behave exactly like Period on success — same
// reports, same state advance — while skipping Period's own Snapshot
// (the caller holds one).
func TestPeriodNoSnapshotMatchesPeriod(t *testing.T) {
	run := func(noSnap bool) []*PeriodReport {
		sc := newScenario()
		m := NewManager(core.Options{Delta: 0.05})
		var reports []*PeriodReport
		for p := 0; p < 4; p++ {
			if p == 2 {
				sc.intensity[0] = 1.05
			}
			var rep *PeriodReport
			var err error
			if noSnap {
				rep, err = m.PeriodNoSnapshot(sc.inputs())
			} else {
				rep, err = m.Period(sc.inputs())
			}
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, rep)
		}
		return reports
	}
	guarded := run(false)
	bare := run(true)
	for p := range guarded {
		for i := range guarded[p].Tenants {
			g, b := guarded[p].Tenants[i], bare[p].Tenants[i]
			if g != b {
				t.Fatalf("period %d tenant %d reports diverge: %+v vs %+v", p, i, g, b)
			}
			for j := range guarded[p].Allocations[i] {
				if guarded[p].Allocations[i][j] != bare[p].Allocations[i][j] {
					t.Fatalf("period %d tenant %d allocations diverge", p, i)
				}
			}
		}
	}
}

// A failed PeriodNoSnapshot may leave per-tenant state dirty; the
// caller's Snapshot/Restore must bring the manager back exactly, so a
// retry behaves like the guarded variant's automatic rollback.
func TestPeriodNoSnapshotRollsBackThroughManagerSnapshot(t *testing.T) {
	sc := newScenario()
	m := NewManager(core.Options{Delta: 0.05})
	if _, err := m.Period(sc.inputs()); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	sc.intensity[0] = 1.3 // major change for tenant 0
	bad := sc.inputs()
	bad[1].Measure = func(a core.Allocation) (float64, error) {
		return 0, fmt.Errorf("injected measurement failure")
	}
	if _, err := m.PeriodNoSnapshot(bad); err == nil {
		t.Fatal("failing Measure must surface")
	}
	m.Restore(snap)
	rep, err := m.PeriodNoSnapshot(sc.inputs())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenants[0].Change != ChangeMajor || !rep.Tenants[0].Rebuilt {
		t.Fatalf("retry after restore should classify the major change again: %+v", rep.Tenants[0])
	}
}
