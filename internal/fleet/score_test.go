package fleet

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/refine"
)

// samePeriodReports asserts two period histories are bit-identical in
// everything the fleet reports: assignments, allocations, degradations,
// costs, and the placement-decision fields.
func samePeriodReports(t *testing.T, label string, a, b []*PeriodReport) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d periods", label, len(a), len(b))
	}
	for p := range a {
		x, y := a[p], b[p]
		if x.TotalCost != y.TotalCost || x.CandidateCost != y.CandidateCost ||
			x.StayCost != y.StayCost || x.LocalSearchImprovement != y.LocalSearchImprovement {
			t.Fatalf("%s period %d: costs diverge: %+v vs %+v", label, p+1, x, y)
		}
		if x.Migrations != y.Migrations || x.Replaced != y.Replaced ||
			x.Arrivals != y.Arrivals || x.Departures != y.Departures ||
			x.Rebuilds != y.Rebuilds || x.QoSViolations != y.QoSViolations ||
			x.MaxDegradation != y.MaxDegradation {
			t.Fatalf("%s period %d: reports diverge: %+v vs %+v", label, p+1, x, y)
		}
		if x.RebalanceMoves != y.RebalanceMoves || len(x.Rebalanced) != len(y.Rebalanced) {
			t.Fatalf("%s period %d: rebalancing diverges: %v vs %v", label, p+1, x.Rebalanced, y.Rebalanced)
		}
		for i := range x.Rebalanced {
			if x.Rebalanced[i] != y.Rebalanced[i] {
				t.Fatalf("%s period %d: rebalancing diverges: %v vs %v", label, p+1, x.Rebalanced, y.Rebalanced)
			}
		}
		if len(x.Rejected) != len(y.Rejected) {
			t.Fatalf("%s period %d: rejected diverge", label, p+1)
		}
		for i := range x.Rejected {
			if x.Rejected[i] != y.Rejected[i] {
				t.Fatalf("%s period %d: rejected diverge", label, p+1)
			}
			if x.RejectedReasons[i] != y.RejectedReasons[i] {
				t.Fatalf("%s period %d: rejection reasons diverge: %v vs %v",
					label, p+1, x.RejectedReasons, y.RejectedReasons)
			}
		}
		if len(x.Assignment) != len(y.Assignment) {
			t.Fatalf("%s period %d: assignment sizes diverge", label, p+1)
		}
		for id, s := range x.Assignment {
			if y.Assignment[id] != s {
				t.Fatalf("%s period %d tenant %s: server %d vs %d", label, p+1, id, s, y.Assignment[id])
			}
		}
		for id, al := range x.Allocations {
			bl := y.Allocations[id]
			if len(al) != len(bl) {
				t.Fatalf("%s period %d tenant %s: allocation arity", label, p+1, id)
			}
			for j := range al {
				if al[j] != bl[j] {
					t.Fatalf("%s period %d tenant %s: allocations diverge: %v vs %v",
						label, p+1, id, al, bl)
				}
			}
		}
		for id, d := range x.Degradations {
			if y.Degradations[id] != d {
				t.Fatalf("%s period %d tenant %s: degradations diverge", label, p+1, id)
			}
		}
	}
}

// The acceptance matrix of the incremental scoring service: the full
// drift/arrival/departure scenario must produce bit-identical
// PeriodReports with the score cache enabled vs disabled, at Parallelism
// 1 vs 8, and with local search on — the cache and the worker count may
// only change how often the advisor actually runs.
func TestFleetScoreCacheAndParallelismParity(t *testing.T) {
	run := func(disableCache bool, parallelism, localSearch int) []*PeriodReport {
		sf := newSimFleet()
		tenants := baseTenants()
		o, err := New(Options{
			Profiles:          sf.profiles,
			MigrationCost:     5,
			Core:              core.Options{Delta: 0.1, Parallelism: parallelism},
			LocalSearch:       localSearch,
			DisableScoreCache: disableCache,
		})
		if err != nil {
			t.Fatal(err)
		}
		var reps []*PeriodReport
		for period := 1; period <= 5; period++ {
			tenants = drift(tenants, period)
			rep, err := o.Period(sf.inputs(tenants))
			if err != nil {
				t.Fatalf("period %d: %v", period, err)
			}
			reps = append(reps, rep)
		}
		return reps
	}
	for _, ls := range []int{0, 3} {
		ref := run(false, 1, ls)
		samePeriodReports(t, "cache off", ref, run(true, 1, ls))
		samePeriodReports(t, "p8", ref, run(false, 8, ls))
		samePeriodReports(t, "cache off p8", ref, run(true, 8, ls))
	}
}

// recomputePeriod runs one period with every cell recomputing:
// SetOptions with the orchestrator's own options marks every cell dirty,
// so the period consults the score cache instead of replaying.
func recomputePeriod(t *testing.T, o *Orchestrator, inputs []Tenant) error {
	t.Helper()
	if err := o.SetOptions(o.opts); err != nil {
		t.Fatal(err)
	}
	_, err := o.Period(inputs)
	return err
}

// converge drives the orchestrator through recomputed steady periods
// until one performs zero fresh advisor runs, failing after maxPeriods.
func converge(t *testing.T, o *Orchestrator, inputs []Tenant, maxPeriods int) {
	t.Helper()
	for p := 0; p < maxPeriods; p++ {
		_, _, before := o.ScoreStats()
		if err := recomputePeriod(t, o, inputs); err != nil {
			t.Fatal(err)
		}
		if _, _, after := o.ScoreStats(); after == before {
			return
		}
	}
	t.Fatalf("fleet did not reach steady state within %d periods", maxPeriods)
}

// In steady state — no arrivals, no departures, no drift — a fleet
// period performs ZERO fresh core.Recommend runs: every machine scoring
// (candidate placement and per-machine manager alike) is a cache hit.
// Every period here recomputes its cell (recomputePeriod): a delta
// period would replay the steady period without consulting the cache at
// all (covered by the delta tests).
func TestFleetSteadyStatePerformsZeroFreshRuns(t *testing.T) {
	sf := newSimFleet()
	tenants := baseTenants()
	o, err := New(opts(sf, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	ins := sf.inputs(tenants)
	converge(t, o, ins, 8)
	hitsBefore, _, runsBefore := o.ScoreStats()
	if err := recomputePeriod(t, o, ins); err != nil {
		t.Fatal(err)
	}
	hitsAfter, _, runsAfter := o.ScoreStats()
	if runsAfter != runsBefore {
		t.Fatalf("steady-state period ran %d fresh advisor runs, want 0", runsAfter-runsBefore)
	}
	if hitsAfter == hitsBefore {
		t.Fatal("steady-state period should be served from the cache")
	}
}

// Score-cache invalidation at the fleet level: workload drift, a tenant
// arrival, and a tenant departure must each force fresh advisor runs,
// while configurations not involving the change keep hitting.
func TestFleetScoreCacheInvalidation(t *testing.T) {
	sf := newSimFleet()
	tenants := baseTenants()
	// Every period recomputes (recomputePeriod): this test watches the
	// cache.
	o, err := New(opts(sf, math.Inf(1), 1))
	if err != nil {
		t.Fatal(err)
	}
	converge(t, o, sf.inputs(tenants), 8)

	step := func(label string, ins []Tenant, wantFresh bool) {
		t.Helper()
		hitsBefore, _, runsBefore := o.ScoreStats()
		if err := recomputePeriod(t, o, ins); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		hitsAfter, _, runsAfter := o.ScoreStats()
		if wantFresh && runsAfter == runsBefore {
			t.Fatalf("%s: expected fresh advisor runs", label)
		}
		if !wantFresh && runsAfter != runsBefore {
			t.Fatalf("%s: expected zero fresh runs, got %d", label, runsAfter-runsBefore)
		}
		if hitsAfter == hitsBefore {
			t.Fatalf("%s: unchanged configurations should still hit", label)
		}
	}

	// Unchanged tenant set: pure hits.
	step("steady", sf.inputs(tenants), false)

	// Workload drift re-keys the drifted tenant's machines (fingerprint
	// and per-query metric both change), but unchanged machines hit.
	tenants[2].alpha *= 1.5
	step("drift", sf.inputs(tenants), true)
	converge(t, o, sf.inputs(tenants), 8)

	// An arrival is a new fingerprint: its candidate scorings are fresh.
	tenants = append(tenants, &simTenant{id: "t9", alpha: 18, gamma: 9})
	step("arrival", sf.inputs(tenants), true)
	converge(t, o, sf.inputs(tenants), 8)

	// Departing the tenant that just arrived restores configurations the
	// cache has already scored — the whole period is served from prior
	// periods' runs, the cross-period reuse this subsystem exists for.
	tenants = tenants[:len(tenants)-1]
	step("revisit departure", sf.inputs(tenants), false)
	converge(t, o, sf.inputs(tenants), 8)

	// Departing an ORIGINAL tenant shrinks its machine to a configuration
	// never scored before: fresh runs, hits for the untouched machines.
	tenants = append(tenants[:1], tenants[2:]...)
	step("novel departure", sf.inputs(tenants), true)
}

// Admission control on an over-subscribed fleet: arrivals beyond the
// slot count, and limit-carrying arrivals no machine can host, are
// rejected and reported; everyone else proceeds normally.
func TestFleetAdmitQoS(t *testing.T) {
	sf := &simFleet{profiles: []string{"big"}, factors: map[string]float64{"big": 1}}
	// Capacity 2 per machine (MinShare 0.5), one machine.
	mkOpts := func() Options {
		return Options{
			Profiles:      sf.profiles,
			MigrationCost: 5,
			AdmitQoS:      true,
			Core:          core.Options{Delta: 0.1, MinShare: 0.5},
		}
	}
	a := &simTenant{id: "a", alpha: 50, gamma: 10}
	b := &simTenant{id: "b", alpha: 40, gamma: 10}
	c := &simTenant{id: "c", alpha: 30, gamma: 10}

	// Capacity rejection: three arrivals into two slots — the third (in
	// input order) is turned away, reported, and not placed.
	o, err := New(mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := o.Period(sf.inputs([]*simTenant{a, b, c}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rejected) != 1 || rep.Rejected[0] != "c" {
		t.Fatalf("want c rejected, got %v", rep.Rejected)
	}
	if rep.Arrivals != 2 {
		t.Fatalf("rejected tenants must not count as arrivals: %d", rep.Arrivals)
	}
	if _, ok := rep.Assignment["c"]; ok {
		t.Fatal("rejected tenant was assigned")
	}
	// Resubmission after a departure frees a slot: c is admitted.
	rep, err = o.Period(sf.inputs([]*simTenant{a, c}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rejected) != 0 {
		t.Fatalf("resubmitted arrival should be admitted: %v", rep.Rejected)
	}
	if _, ok := rep.Assignment["c"]; !ok {
		t.Fatal("resubmitted tenant not assigned")
	}

	// QoS rejection: a tight-limited arrival that cannot share the only
	// machine within its degradation limit is rejected even though a slot
	// is free; a loose-limited one is admitted.
	o2, err := New(mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o2.Period(sf.inputs([]*simTenant{a})); err != nil {
		t.Fatal(err)
	}
	tight := &simTenant{id: "q", alpha: 40, gamma: 10, limit: 1.2}
	rep, err = o2.Period(sf.inputs([]*simTenant{a, tight}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rejected) != 1 || rep.Rejected[0] != "q" {
		t.Fatalf("tight-limited arrival should be rejected: %v", rep.Rejected)
	}
	loose := &simTenant{id: "q", alpha: 40, gamma: 10, limit: 5}
	rep, err = o2.Period(sf.inputs([]*simTenant{a, loose}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rejected) != 0 {
		t.Fatalf("loose-limited arrival should be admitted: %v", rep.Rejected)
	}
	if rep.QoSViolations != 0 {
		t.Fatalf("admitted fleet should have no violations: %d", rep.QoSViolations)
	}

	// An UNLIMITED arrival must still be rejected when seating it would
	// break an incumbent resident's limit: admission protects residents,
	// not just the newcomer.
	o4, err := New(mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	fragile := &simTenant{id: "f", alpha: 50, gamma: 10, limit: 1.2}
	if _, err := o4.Period(sf.inputs([]*simTenant{fragile})); err != nil {
		t.Fatal(err)
	}
	bully := &simTenant{id: "bully", alpha: 60, gamma: 10} // no limit
	rep, err = o4.Period(sf.inputs([]*simTenant{fragile, bully}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rejected) != 1 || rep.Rejected[0] != "bully" {
		t.Fatalf("unlimited arrival breaking the resident's limit should be rejected: %v", rep.Rejected)
	}
	if rep.QoSViolations != 0 {
		t.Fatalf("resident's limit must stay protected: %d violations", rep.QoSViolations)
	}

	// Without AdmitQoS the same tight arrival is placed best-effort and
	// violates its limit — the behaviour admission control prevents.
	plain := mkOpts()
	plain.AdmitQoS = false
	o3, err := New(plain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o3.Period(sf.inputs([]*simTenant{a})); err != nil {
		t.Fatal(err)
	}
	rep, err = o3.Period(sf.inputs([]*simTenant{a, tight}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.QoSViolations == 0 {
		t.Fatal("best-effort placement should violate the tight limit")
	}
}

// The single-snapshot satellite: a fleet period clones each live refined
// model exactly once (the fleet-level snapshot), not twice — the
// manager-internal snapshot is deferred to the orchestrator.
func TestFleetPeriodClonesModelsOnce(t *testing.T) {
	sf := newSimFleet()
	tenants := baseTenants()
	o, err := New(opts(sf, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	ins := sf.inputs(tenants)
	// Two periods build every tenant's refined model.
	for p := 0; p < 2; p++ {
		if _, err := o.Period(ins); err != nil {
			t.Fatal(err)
		}
	}
	before := refine.ModelClones()
	if _, err := o.Period(ins); err != nil {
		t.Fatal(err)
	}
	delta := refine.ModelClones() - before
	if want := int64(len(tenants)); delta != want {
		t.Fatalf("period cloned %d models for %d tenants, want exactly one clone each", delta, want)
	}
}

// Fleet-level local search: a fleet run with LocalSearch on never reports
// a costlier candidate placement than greedy, and the improvement field
// is consistent.
func TestFleetLocalSearchNeverWorse(t *testing.T) {
	run := func(localSearch int) []*PeriodReport {
		sf := newSimFleet()
		tenants := baseTenants()
		o, err := New(Options{
			Profiles:      sf.profiles,
			MigrationCost: 0,
			Core:          core.Options{Delta: 0.1},
			LocalSearch:   localSearch,
		})
		if err != nil {
			t.Fatal(err)
		}
		var reps []*PeriodReport
		for period := 1; period <= 4; period++ {
			tenants = drift(tenants, period)
			rep, err := o.Period(sf.inputs(tenants))
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
		return reps
	}
	greedy := run(0)
	refined := run(4)
	for p := range greedy {
		if refined[p].LocalSearchImprovement < 0 {
			t.Fatalf("period %d: negative local-search improvement %v",
				p+1, refined[p].LocalSearchImprovement)
		}
		if refined[p].CandidateCost > greedy[p].CandidateCost+1e-9 {
			t.Fatalf("period %d: local search worsened the candidate: %v > %v",
				p+1, refined[p].CandidateCost, greedy[p].CandidateCost)
		}
		if greedy[p].LocalSearchImprovement != 0 {
			t.Fatalf("period %d: improvement reported with local search off", p+1)
		}
	}
}
