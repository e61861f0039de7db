package fleet

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dynmgmt"
	"repro/internal/placement"
)

// simTenant is a synthetic tenant whose true cost is inverse-linear in
// its shares, scaled by the hardware profile's speed factor; the
// "optimizer" sees the same shape with a per-tenant bias. Mutating alpha
// or gamma between periods models workload drift.
type simTenant struct {
	id           string
	alpha, gamma float64
	bias         float64 // optimizer's multiplicative error (1 = perfect)
	gain, limit  float64
	pin          int // 1-based pinned server (0 = unpinned), as Tenant.Pin
}

// simFleet fixes the hardware: profile key → speed factor (cost
// multiplier; slower machines run everything proportionally longer).
type simFleet struct {
	profiles []string
	factors  map[string]float64
}

func (sf *simFleet) factor(profile string) float64 {
	if f, ok := sf.factors[profile]; ok {
		return f
	}
	return 1
}

func (sf *simFleet) input(t *simTenant) Tenant {
	alpha, gamma := t.alpha, t.gamma
	bias := t.bias
	if bias == 0 {
		bias = 1
	}
	return Tenant{
		ID:    t.id,
		Gain:  t.gain,
		Limit: t.limit,
		Pin:   t.pin,
		// Content-addressed workload fingerprint: any drift in the
		// tenant's parameters re-keys every machine configuration that
		// contains it.
		Fingerprint: fmt.Sprintf("%s|%g|%g|%g", t.id, alpha, gamma, bias),
		EstFor: func(profile string) core.Estimator {
			f := sf.factor(profile)
			return core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
				return bias * f * (alpha/a[0] + gamma/a[1]), "p", nil
			})
		},
		AvgEstPerQuery: bias * (alpha + gamma),
		Measure: func(server int, a core.Allocation) (float64, error) {
			f := sf.factor(sf.profiles[server])
			return f * (alpha/a[0] + gamma/a[1]), nil
		},
	}
}

func (sf *simFleet) inputs(tenants []*simTenant) []Tenant {
	out := make([]Tenant, len(tenants))
	for i, t := range tenants {
		out[i] = sf.input(t)
	}
	return out
}

func newSimFleet() *simFleet {
	return &simFleet{
		profiles: []string{"big", "big", "small"},
		factors:  map[string]float64{"big": 1, "small": 2},
	}
}

func baseTenants() []*simTenant {
	return []*simTenant{
		{id: "t0", alpha: 60, gamma: 10},
		{id: "t1", alpha: 45, gamma: 20, limit: 4},
		{id: "t2", alpha: 8, gamma: 4},
		{id: "t3", alpha: 30, gamma: 12, gain: 2},
		{id: "t4", alpha: 12, gamma: 30},
		{id: "t5", alpha: 5, gamma: 5},
	}
}

func opts(sf *simFleet, migrationCost float64, parallelism int) Options {
	return Options{
		Profiles:      sf.profiles,
		MigrationCost: migrationCost,
		Core:          core.Options{Delta: 0.1, Parallelism: parallelism},
	}
}

func TestFleetFirstPeriodAdoptsFreshPlacement(t *testing.T) {
	sf := newSimFleet()
	tenants := baseTenants()
	o, err := New(opts(sf, 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := o.Period(sf.inputs(tenants))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Period != 1 || !rep.Replaced || rep.Migrations != 0 {
		t.Fatalf("first period: %+v", rep)
	}
	if rep.Arrivals != len(tenants) || rep.Departures != 0 {
		t.Fatalf("first period arrivals=%d departures=%d", rep.Arrivals, rep.Departures)
	}
	// The initial assignment must match a fresh placement.Place run over
	// the same inputs.
	want := freshPlacement(t, sf, tenants, 1)
	for i, st := range tenants {
		if got := rep.Assignment[st.id]; got != want.Assignment[i] {
			t.Fatalf("tenant %s on server %d, fresh placement says %d", st.id, got, want.Assignment[i])
		}
		if len(rep.Allocations[st.id]) != 2 {
			t.Fatalf("tenant %s has no allocation", st.id)
		}
		if rep.Degradations[st.id] < 1-1e-9 {
			t.Fatalf("tenant %s degradation %v < 1", st.id, rep.Degradations[st.id])
		}
	}
	if rep.TotalCost <= 0 || rep.MaxDegradation < 1 {
		t.Fatalf("report totals: %+v", rep)
	}
}

// freshPlacement runs placement.Place over the current tenant inputs,
// the oracle the zero-penalty fleet must track.
func freshPlacement(t *testing.T, sf *simFleet, tenants []*simTenant, parallelism int) *placement.Placement {
	t.Helper()
	ins := sf.inputs(tenants)
	pt := make([]placement.Tenant, len(ins))
	for i, in := range ins {
		pt[i] = placement.Tenant{Name: in.ID, EstFor: in.EstFor, Gain: in.Gain, Limit: in.Limit}
	}
	p, err := placement.Place(pt, placement.Options{
		Profiles: sf.profiles,
		Core:     core.Options{Delta: 0.1, Parallelism: parallelism},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// drift mutates the tenants for a given period: steady growth of t0,
// a workload explosion on t2 at period 3 (pressure to re-place), one
// departure (t5 at period 3) and one arrival (t6 at period 4).
func drift(tenants []*simTenant, period int) []*simTenant {
	for _, st := range tenants {
		if st.id == "t0" {
			st.alpha *= 1.04
		}
	}
	switch period {
	case 3:
		out := tenants[:0]
		for _, st := range tenants {
			if st.id == "t2" {
				st.alpha, st.gamma = 70, 25 // explosion: major change
			}
			if st.id != "t5" {
				out = append(out, st)
			}
		}
		return out
	case 4:
		return append(tenants, &simTenant{id: "t6", alpha: 25, gamma: 15})
	}
	return tenants
}

// With an effectively infinite migration penalty the fleet never moves a
// tenant after the initial placement: arrivals are placed, departures
// drop, but every survivor stays on its machine.
func TestFleetHighPenaltyFreezesPlacement(t *testing.T) {
	sf := newSimFleet()
	tenants := baseTenants()
	o, err := New(opts(sf, math.Inf(1), 1))
	if err != nil {
		t.Fatal(err)
	}
	prev := map[string]int{}
	for period := 1; period <= 5; period++ {
		tenants = drift(tenants, period)
		rep, err := o.Period(sf.inputs(tenants))
		if err != nil {
			t.Fatalf("period %d: %v", period, err)
		}
		if period > 1 && rep.Migrations != 0 {
			t.Fatalf("period %d migrated %d tenants under infinite penalty", period, rep.Migrations)
		}
		for id, s := range prev {
			if got, ok := rep.Assignment[id]; ok && got != s {
				t.Fatalf("period %d: tenant %s moved %d → %d under infinite penalty", period, id, s, got)
			}
		}
		prev = rep.Assignment
		switch period {
		case 3:
			if rep.Departures != 1 {
				t.Fatalf("period 3 should see t5 depart, got %d departures", rep.Departures)
			}
			if _, ok := rep.Assignment["t5"]; ok {
				t.Fatal("departed tenant still assigned")
			}
		case 4:
			if rep.Arrivals != 1 {
				t.Fatalf("period 4 should see t6 arrive, got %d arrivals", rep.Arrivals)
			}
			if _, ok := rep.Assignment["t6"]; !ok {
				t.Fatal("arrived tenant not assigned")
			}
		}
	}
}

// With zero migration penalty the fleet adopts the fresh placement every
// period: its assignment must match placement.Place over the current
// inputs, period by period.
func TestFleetZeroPenaltyTracksFreshPlacement(t *testing.T) {
	sf := newSimFleet()
	tenants := baseTenants()
	o, err := New(opts(sf, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	for period := 1; period <= 5; period++ {
		tenants = drift(tenants, period)
		rep, err := o.Period(sf.inputs(tenants))
		if err != nil {
			t.Fatalf("period %d: %v", period, err)
		}
		if !rep.Replaced {
			t.Fatalf("period %d: zero penalty must adopt the candidate", period)
		}
		want := freshPlacement(t, sf, tenants, 1)
		for i, st := range tenants {
			if got := rep.Assignment[st.id]; got != want.Assignment[i] {
				t.Fatalf("period %d tenant %s: server %d, fresh placement says %d",
					period, st.id, got, want.Assignment[i])
			}
		}
	}
}

// A finite penalty migrates only when the improvement pays for it. The
// canonical case: a heavy tenant departs and frees the fast machine, so
// re-placing the survivor off the slow machine buys a large improvement.
// The same scenario under an infinite penalty keeps the survivor put —
// and a penalty priced above the improvement behaves identically.
func TestFleetMigratesWhenImprovementBeatsPenalty(t *testing.T) {
	newSF := func() *simFleet {
		return &simFleet{profiles: []string{"big", "small"}, factors: map[string]float64{"big": 1, "small": 3}}
	}
	heavy := func() *simTenant { return &simTenant{id: "a", alpha: 80, gamma: 20} }
	light := func() *simTenant { return &simTenant{id: "b", alpha: 60, gamma: 15} }

	run := func(penalty float64) (first, second *PeriodReport) {
		sf := newSF()
		o, err := New(opts(sf, penalty, 1))
		if err != nil {
			t.Fatal(err)
		}
		first, err = o.Period(sf.inputs([]*simTenant{heavy(), light()}))
		if err != nil {
			t.Fatal(err)
		}
		// Tenant a departs: the big machine idles, and a fresh placement
		// would move b onto it.
		second, err = o.Period(sf.inputs([]*simTenant{light()}))
		if err != nil {
			t.Fatal(err)
		}
		return first, second
	}

	first, second := run(1) // modest penalty, far below the improvement
	if first.Assignment["a"] != 0 || first.Assignment["b"] != 1 {
		t.Fatalf("setup: want a on big, b on small: %v", first.Assignment)
	}
	if !second.Replaced || second.Migrations != 1 || second.Assignment["b"] != 0 {
		t.Fatalf("survivor should migrate to the freed big machine: %+v", second)
	}
	if imp := second.StayCost - second.CandidateCost; imp <= 1 {
		t.Fatalf("improvement %v should exceed the penalty", imp)
	}

	_, frozen := run(math.Inf(1))
	if frozen.Migrations != 0 || frozen.Assignment["b"] != 1 {
		t.Fatalf("infinite penalty must keep the survivor put: %+v", frozen)
	}

	_, priced := run(1e6) // penalty priced above the improvement
	if priced.Migrations != 0 || priced.Assignment["b"] != 1 {
		t.Fatalf("overpriced migration must keep the survivor put: %+v", priced)
	}
}

// Machines of one profile are interchangeable, so a fresh candidate
// placement that relabels them must not inflate the migration count.
// Setup: A on big0, C on big1, B on small2; A departs. The fresh
// placement seats C on big0 (first empty big) and moves B to big1 —
// raw diffing would count 2 moves and a penalty of 2×30 would veto the
// genuinely profitable single migration of B off the slow machine.
// Canonicalized, C's relabel is free: B migrates (1 move), C stays put.
func TestFleetCanonicalizesInterchangeableMachines(t *testing.T) {
	sf := &simFleet{profiles: []string{"big", "big", "small"}, factors: map[string]float64{"big": 1, "small": 3}}
	a := &simTenant{id: "a", alpha: 100, gamma: 10}
	c := &simTenant{id: "c", alpha: 90, gamma: 10}
	b := &simTenant{id: "b", alpha: 20, gamma: 5}
	o, err := New(opts(sf, 30, 1))
	if err != nil {
		t.Fatal(err)
	}
	first, err := o.Period(sf.inputs([]*simTenant{a, c, b}))
	if err != nil {
		t.Fatal(err)
	}
	if first.Assignment["a"] != 0 || first.Assignment["c"] != 1 || first.Assignment["b"] != 2 {
		t.Fatalf("setup: want a=0 c=1 b=2, got %v", first.Assignment)
	}
	second, err := o.Period(sf.inputs([]*simTenant{c, b}))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Replaced || second.Migrations != 1 {
		t.Fatalf("want the single profitable migration adopted: %+v", second)
	}
	if second.Assignment["c"] != 1 {
		t.Fatalf("survivor c relabeled across interchangeable machines: %v", second.Assignment)
	}
	if got := second.Assignment["b"]; got != 0 {
		t.Fatalf("b should migrate to the freed big machine 0, got %d", got)
	}
}

// The §6 machinery must keep working through the fleet: an unchanged
// tenant converges and stops being observed, while a drifting tenant
// keeps classifying minor changes on its machine's manager.
func TestFleetDrivesPerMachineDynamicManagement(t *testing.T) {
	sf := newSimFleet()
	tenants := []*simTenant{
		{id: "stable", alpha: 40, gamma: 10},
		{id: "drifty", alpha: 30, gamma: 15},
	}
	o, err := New(opts(sf, math.Inf(1), 1))
	if err != nil {
		t.Fatal(err)
	}
	var last *PeriodReport
	for period := 1; period <= 5; period++ {
		if period > 1 {
			tenants[1].alpha *= 1.03 // minor drift, below τ
		}
		rep, err := o.Period(sf.inputs(tenants))
		if err != nil {
			t.Fatal(err)
		}
		last = rep
	}
	classOf := func(rep *PeriodReport, id string) dynmgmt.ChangeClass {
		for _, m := range rep.Machines {
			for k, tid := range m.TenantIDs {
				if tid == id {
					return m.Dyn.Tenants[k].Change
				}
			}
		}
		t.Fatalf("tenant %s not in any machine report", id)
		return 0
	}
	if got := classOf(last, "stable"); got != dynmgmt.ChangeNone {
		t.Fatalf("stable tenant classified %v", got)
	}
	if got := classOf(last, "drifty"); got != dynmgmt.ChangeMinor {
		t.Fatalf("drifting tenant classified %v, want minor", got)
	}
}

// The whole multi-period scenario — drift, arrival, departure, both
// penalty regimes — must be bit-identical across Parallelism settings.
func TestFleetParallelParity(t *testing.T) {
	for _, penalty := range []float64{0, 5, math.Inf(1)} {
		run := func(parallelism int) []*PeriodReport {
			sf := newSimFleet()
			tenants := baseTenants()
			o, err := New(opts(sf, penalty, parallelism))
			if err != nil {
				t.Fatal(err)
			}
			var reps []*PeriodReport
			for period := 1; period <= 5; period++ {
				tenants = drift(tenants, period)
				rep, err := o.Period(sf.inputs(tenants))
				if err != nil {
					t.Fatalf("penalty %v period %d: %v", penalty, period, err)
				}
				reps = append(reps, rep)
			}
			return reps
		}
		seq := run(1)
		par := run(8)
		for p := range seq {
			if seq[p].TotalCost != par[p].TotalCost ||
				seq[p].Migrations != par[p].Migrations ||
				seq[p].Replaced != par[p].Replaced {
				t.Fatalf("penalty %v period %d diverges: %+v vs %+v", penalty, p+1, seq[p], par[p])
			}
			for id, s := range seq[p].Assignment {
				if par[p].Assignment[id] != s {
					t.Fatalf("penalty %v period %d tenant %s: server %d vs %d",
						penalty, p+1, id, s, par[p].Assignment[id])
				}
			}
			for id, a := range seq[p].Allocations {
				b := par[p].Allocations[id]
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("penalty %v period %d tenant %s: allocations diverge: %v vs %v",
							penalty, p+1, id, a, b)
					}
				}
			}
		}
	}
}

// Fleet-level transactionality: when a later machine fails, managers
// that already completed their periods must roll back too — a drifted
// tenant on an earlier machine classifies its drift again on retry
// (without rollback its manager already advanced and would see no
// change), and an adopted migration must not leave the migrant's state
// dropped on the old machine.
func TestFleetFailedPeriodRollsBackAllMachines(t *testing.T) {
	sf := &simFleet{profiles: []string{"big", "big"}, factors: map[string]float64{"big": 1}}
	x := &simTenant{id: "x", alpha: 40, gamma: 10}
	y := &simTenant{id: "y", alpha: 30, gamma: 10}
	o, err := New(opts(sf, 1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	first, err := o.Period(sf.inputs([]*simTenant{x, y}))
	if err != nil {
		t.Fatal(err)
	}
	if first.Assignment["x"] == first.Assignment["y"] {
		t.Fatalf("setup: tenants should spread over the two machines: %v", first.Assignment)
	}
	// Period 2: x drifts (minor, on the machine processed first) and y's
	// measurement fails (on the machine processed second).
	x.alpha *= 1.05
	bad := sf.inputs([]*simTenant{x, y})
	badIdx := 1
	if first.Assignment["y"] < first.Assignment["x"] {
		t.Fatal("setup: y must live on the later machine")
	}
	bad[badIdx].Measure = func(server int, a core.Allocation) (float64, error) {
		return 0, fmt.Errorf("injected measurement failure")
	}
	if _, err := o.Period(bad); err == nil {
		t.Fatal("failing Measure must surface")
	}
	// Retry: x's drift must classify ChangeMinor again — its machine's
	// manager ran before the failure and must have been rolled back.
	rep, err := o.Period(sf.inputs([]*simTenant{x, y}))
	if err != nil {
		t.Fatal(err)
	}
	var xClass dynmgmt.ChangeClass
	found := false
	for _, m := range rep.Machines {
		for k, id := range m.TenantIDs {
			if id == "x" {
				xClass = m.Dyn.Tenants[k].Change
				found = true
			}
		}
	}
	if !found {
		t.Fatal("tenant x missing from retry report")
	}
	if xClass != dynmgmt.ChangeMinor {
		t.Fatalf("retry classified x as %v, want minor: the first machine's manager was not rolled back", xClass)
	}
}

// A failed period must not advance the fleet: assignment and period
// count stay put so the caller can retry.
func TestFleetFailedPeriodLeavesStateUntouched(t *testing.T) {
	sf := newSimFleet()
	tenants := baseTenants()
	o, err := New(opts(sf, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Period(sf.inputs(tenants)); err != nil {
		t.Fatal(err)
	}
	before := o.Assignment()
	bad := sf.inputs(tenants)
	bad[3].Measure = func(server int, a core.Allocation) (float64, error) {
		return 0, fmt.Errorf("injected measurement failure")
	}
	if _, err := o.Period(bad); err == nil {
		t.Fatal("failing Measure must surface")
	}
	after := o.Assignment()
	if len(after) != len(before) {
		t.Fatalf("assignment changed on failure: %v vs %v", after, before)
	}
	for id, s := range before {
		if after[id] != s {
			t.Fatalf("tenant %s reassigned by failed period", id)
		}
	}
	if o.period != 1 {
		t.Fatalf("failed period advanced the period counter to %d", o.period)
	}
	// Retry succeeds and continues from period 2.
	rep, err := o.Period(sf.inputs(tenants))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Period != 2 {
		t.Fatalf("retry is period %d, want 2", rep.Period)
	}
}

func TestFleetValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("no profiles should error")
	}
	if _, err := New(Options{Profiles: []string{""}, MigrationCost: -1}); err == nil {
		t.Fatal("negative migration cost should error")
	}
	if _, err := New(Options{Profiles: []string{""}, Core: core.Options{Gains: []float64{1}}}); err == nil {
		t.Fatal("positional QoS should error")
	}
	sf := newSimFleet()
	o, err := New(opts(sf, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Period(nil); err == nil {
		t.Fatal("empty period should error")
	}
	good := sf.input(&simTenant{id: "a", alpha: 10, gamma: 5})
	noID := good
	noID.ID = ""
	if _, err := o.Period([]Tenant{noID}); err == nil {
		t.Fatal("missing ID should error")
	}
	if _, err := o.Period([]Tenant{good, good}); err == nil {
		t.Fatal("duplicate IDs should error")
	}
	noEst := good
	noEst.EstFor = nil
	if _, err := o.Period([]Tenant{noEst}); err == nil {
		t.Fatal("missing EstFor should error")
	}
	noMeasure := good
	noMeasure.Measure = nil
	if _, err := o.Period([]Tenant{noMeasure}); err == nil {
		t.Fatal("missing Measure should error")
	}
	if o.Servers() != 3 {
		t.Fatalf("Servers() = %d", o.Servers())
	}
}
