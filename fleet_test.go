package vdesign

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// fleetScenario drives the acceptance scenario end-to-end through the
// public API: 3 machines across 2 distinct hardware profiles, 6 tenants
// at the start, a workload drift at period 2, and one departure plus one
// arrival at period 3, over 4 monitoring periods.
type fleetScenario struct {
	fleet   *Fleet
	tenants []*FleetTenant // live tenants in registration order
	reports []*FleetPeriodReport
}

// smallProfile is the older hardware generation: half the CPU, half the
// memory.
func smallProfile() MachineProfile {
	return MachineProfile{CPUHz: 1.1e9, MemoryBytes: 4 << 30}
}

func runFleetScenario(t *testing.T, migrationCost float64, parallelism int) *fleetScenario {
	t.Helper()
	f := NewFleet(&FleetOptions{
		MigrationCost: migrationCost,
		Delta:         0.1,
		Parallelism:   parallelism,
	})
	for _, p := range []MachineProfile{{}, {}, smallProfile()} {
		if _, err := f.AddServer(p); err != nil {
			t.Fatal(err)
		}
	}
	schema := tpch.Schema(1)
	sc := &fleetScenario{fleet: f}
	add := func(id string, flavor Flavor, queries ...int) *FleetTenant {
		var sql []string
		for _, q := range queries {
			sql = append(sql, tpch.QueryText(q))
		}
		h, err := f.AddTenant(id, flavor, schema, sql)
		if err != nil {
			t.Fatal(err)
		}
		sc.tenants = append(sc.tenants, h)
		return h
	}
	add("t0", PostgreSQL, 1)
	limited := add("t1", DB2, 18)
	add("t2", PostgreSQL, 6)
	add("t3", DB2, 5)
	departing := add("t4", PostgreSQL, 14)
	add("t5", DB2, 17)
	f.SetQoS(limited, QoS{DegradationLimit: 3})

	for period := 1; period <= 4; period++ {
		switch period {
		case 2:
			// Workload drift on t0: a different statement mix shifts the
			// per-query estimate (§6.1's change metric).
			w := sc.tenants[0]
			if err := f.SetWorkload(w, mustWorkload("t0", tpch.QueryText(1), tpch.QueryText(18))); err != nil {
				t.Fatal(err)
			}
		case 3:
			f.RemoveTenant(departing)
			sc.dropTenant(departing)
			sc.tenants = append(sc.tenants, nil)
			h, err := f.AddTenant("t6", PostgreSQL, schema, []string{tpch.QueryText(19)})
			if err != nil {
				t.Fatal(err)
			}
			sc.tenants[len(sc.tenants)-1] = h
		}
		rep, err := f.Period()
		if err != nil {
			t.Fatalf("period %d: %v", period, err)
		}
		sc.reports = append(sc.reports, rep)
	}
	return sc
}

func (sc *fleetScenario) dropTenant(h *FleetTenant) {
	out := sc.tenants[:0]
	for _, t := range sc.tenants {
		if t != h {
			out = append(out, t)
		}
	}
	sc.tenants = out
}

func mustWorkload(name string, sqls ...string) *workload.Workload {
	w := &workload.Workload{Name: name}
	for _, sql := range sqls {
		w.Statements = append(w.Statements, workload.MustStatement(sql))
	}
	return w
}

// Acceptance criterion: the multi-period scenario runs end-to-end, and
// with a high migration penalty the orchestrator performs 0 migrations
// after the initial placement.
func TestFleetHighPenaltyScenario(t *testing.T) {
	sc := runFleetScenario(t, math.Inf(1), 1)
	prev := map[string]int{}
	for i, rep := range sc.reports {
		if i > 0 && rep.Migrations() != 0 {
			t.Fatalf("period %d migrated %d tenants under infinite penalty", rep.Period(), rep.Migrations())
		}
		for _, h := range sc.tenants {
			s := rep.ServerOf(h)
			if s < 0 && rep.Period() >= 4 {
				t.Fatalf("period %d: live tenant %s unassigned", rep.Period(), h.ID())
			}
			if s >= 0 {
				if old, ok := prev[h.ID()]; ok && old != s {
					t.Fatalf("period %d: tenant %s moved %d → %d under infinite penalty",
						rep.Period(), h.ID(), old, s)
				}
				prev[h.ID()] = s
				cpu, mem := rep.Shares(h)
				if cpu <= 0 || mem <= 0 {
					t.Fatalf("period %d tenant %s: shares (%v, %v)", rep.Period(), h.ID(), cpu, mem)
				}
			}
		}
		if rep.TotalCost() <= 0 || rep.MaxDegradation() < 1 {
			t.Fatalf("period %d report totals: cost %v maxdeg %v",
				rep.Period(), rep.TotalCost(), rep.MaxDegradation())
		}
	}
	// The scenario's structural events must be visible in the reports.
	if got := sc.reports[0].Arrivals(); got != 6 {
		t.Fatalf("period 1 arrivals = %d, want 6", got)
	}
	if got := sc.reports[2].Departures(); got != 1 {
		t.Fatalf("period 3 departures = %d, want 1", got)
	}
	if got := sc.reports[2].Arrivals(); got != 1 {
		t.Fatalf("period 3 arrivals = %d, want 1", got)
	}
	// The QoS-limited tenant stays within its travelling limit.
	for _, rep := range sc.reports {
		if v := rep.QoSViolations(); v != 0 {
			t.Fatalf("period %d: %d QoS violations", rep.Period(), v)
		}
	}
}

// Acceptance criterion: with migration penalty 0 the fleet matches a
// fresh placement.Place run over the current tenants every period.
func TestFleetZeroPenaltyMatchesFreshPlacement(t *testing.T) {
	f := NewFleet(&FleetOptions{MigrationCost: 0, Delta: 0.1})
	for _, p := range []MachineProfile{{}, {}, smallProfile()} {
		if _, err := f.AddServer(p); err != nil {
			t.Fatal(err)
		}
	}
	schema := tpch.Schema(1)
	var tenants []*FleetTenant
	for i, q := range []int{1, 18, 6, 5, 14, 17} {
		flavor := PostgreSQL
		if i%2 == 1 {
			flavor = DB2
		}
		h, err := f.AddTenant(fmt.Sprintf("t%d", i), flavor, schema, []string{tpch.QueryText(q)})
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, h)
	}
	for period := 1; period <= 3; period++ {
		if period == 2 {
			// Drift pressure: t0's workload changes shape.
			if err := f.SetWorkload(tenants[0], mustWorkload("t0", tpch.QueryText(1), tpch.QueryText(18))); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := f.Period()
		if err != nil {
			t.Fatalf("period %d: %v", period, err)
		}
		if !rep.Replaced() {
			t.Fatalf("period %d: zero penalty must adopt the fresh placement", period)
		}
		// Oracle: placement.Place over the same estimators and options.
		pt := make([]placement.Tenant, len(tenants))
		for i, h := range tenants {
			h := h
			pt[i] = placement.Tenant{
				Name:   h.id,
				EstFor: func(profile string) core.Estimator { return f.estOn(h, profile) },
			}
			if h.qos.GainFactor >= 1 {
				pt[i].Gain = h.qos.GainFactor
			}
			if h.qos.DegradationLimit >= 1 {
				pt[i].Limit = h.qos.DegradationLimit
			}
		}
		want, err := placement.Place(pt, placement.Options{Profiles: f.keys, Core: f.coreOpts()})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range tenants {
			if got := rep.ServerOf(h); got != want.Assignment[i] {
				t.Fatalf("period %d tenant %s: fleet server %d, fresh placement %d",
					period, h.ID(), got, want.Assignment[i])
			}
		}
	}
}

// Acceptance criterion: both penalty regimes are bit-identical at
// Parallelism 1 vs 8 — assignments, shares, and every reported cost.
func TestFleetParallelParity(t *testing.T) {
	for _, penalty := range []float64{0, math.Inf(1)} {
		seq := runFleetScenario(t, penalty, 1)
		par := runFleetScenario(t, penalty, 8)
		for p := range seq.reports {
			rs, rp := seq.reports[p], par.reports[p]
			if rs.TotalCost() != rp.TotalCost() || rs.Migrations() != rp.Migrations() ||
				rs.Replaced() != rp.Replaced() || rs.CandidateCost() != rp.CandidateCost() ||
				rs.StayCost() != rp.StayCost() {
				t.Fatalf("penalty %v period %d: reports diverge (cost %v vs %v)",
					penalty, p+1, rs.TotalCost(), rp.TotalCost())
			}
			for i := range seq.tenants {
				hs, hp := seq.tenants[i], par.tenants[i]
				if rs.ServerOf(hs) != rp.ServerOf(hp) {
					t.Fatalf("penalty %v period %d tenant %s: server %d vs %d",
						penalty, p+1, hs.ID(), rs.ServerOf(hs), rp.ServerOf(hp))
				}
				cs, ms := rs.Shares(hs)
				cp, mp := rp.Shares(hp)
				if cs != cp || ms != mp {
					t.Fatalf("penalty %v period %d tenant %s: shares (%v,%v) vs (%v,%v)",
						penalty, p+1, hs.ID(), cs, ms, cp, mp)
				}
				if rs.Degradation(hs) != rp.Degradation(hp) {
					t.Fatalf("penalty %v period %d tenant %s: degradations diverge", penalty, p+1, hs.ID())
				}
			}
		}
	}
}

func TestFleetValidation(t *testing.T) {
	f := NewFleet(nil)
	if _, err := f.Period(); err == nil {
		t.Fatal("fleet without servers should error")
	}
	if _, err := f.AddServer(MachineProfile{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Period(); err == nil {
		t.Fatal("fleet without tenants should error")
	}
	schema := tpch.Schema(1)
	if _, err := f.AddTenant("", PostgreSQL, schema, []string{tpch.QueryText(1)}); err == nil {
		t.Fatal("empty tenant ID should error")
	}
	h, err := f.AddTenant("a", PostgreSQL, schema, []string{tpch.QueryText(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddTenant("a", DB2, schema, []string{tpch.QueryText(1)}); err == nil {
		t.Fatal("duplicate tenant ID should error")
	}
	if _, err := f.AddTenant("b", Flavor(42), schema, []string{tpch.QueryText(1)}); err == nil {
		t.Fatal("unknown flavor should error")
	}
	if err := f.SetWorkload(h, nil); err == nil {
		t.Fatal("nil workload should error")
	}
	if _, err := f.Period(); err != nil {
		t.Fatal(err)
	}
	// Servers may now be added mid-run: the new server joins a placement
	// cell without disturbing the existing topology.
	s, err := f.AddServer(MachineProfile{})
	if err != nil {
		t.Fatalf("adding a server mid-run: %v", err)
	}
	if s != f.Servers()-1 || f.CellOf(s) < 0 {
		t.Fatalf("mid-run server %d of %d in cell %d", s, f.Servers(), f.CellOf(s))
	}
	if err := f.RemoveServer(s); err != nil {
		t.Fatalf("removing the empty server: %v", err)
	}
	if f.CellOf(s) != -1 {
		t.Fatal("removed server should leave its cell")
	}
	// A removed tenant frees its ID for a fresh registration — and the
	// new tenant is a genuine arrival, not the departed tenant's state
	// under a recycled name.
	f.RemoveTenant(h)
	h2, err := f.AddTenant("a", DB2, schema, []string{tpch.QueryText(5)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Period()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrivals() != 1 || rep.Departures() != 1 {
		t.Fatalf("recycled ID must depart the old tenant and arrive the new one: arrivals=%d departures=%d",
			rep.Arrivals(), rep.Departures())
	}
	if rep.ServerOf(h) != -1 {
		t.Fatal("departed tenant must not resolve in the new period's report")
	}
	if rep.ServerOf(h2) < 0 {
		t.Fatal("re-registered tenant must be assigned")
	}
}

// The fleet's score cache serves repeated periods: over unchanged
// workloads it sees real hit traffic, and a steady final period performs
// zero fresh advisor runs. That the cache never changes a report (cache
// on ≡ off) is asserted where the switch lives, in internal/fleet's
// parity suites.
func TestFleetScoreCacheParityAndSteadyState(t *testing.T) {
	f := NewFleet(&FleetOptions{MigrationCost: 5, Delta: 0.1})
	for _, p := range []MachineProfile{{}, smallProfile()} {
		if _, err := f.AddServer(p); err != nil {
			t.Fatal(err)
		}
	}
	schema := tpch.Schema(1)
	for i, q := range []int{1, 6, 14} {
		if _, err := f.AddTenant(fmt.Sprintf("t%d", i), PostgreSQL, schema, []string{tpch.QueryText(q)}); err != nil {
			t.Fatal(err)
		}
	}
	for period := 1; period <= 4; period++ {
		if _, err := f.Period(); err != nil {
			t.Fatalf("period %d: %v", period, err)
		}
	}
	hits, _, runsBefore := f.ScoreStats()
	if hits == 0 {
		t.Fatal("repeated periods over unchanged workloads should hit the cache")
	}
	// A further steady-state period performs zero fresh advisor runs.
	if _, err := f.Period(); err != nil {
		t.Fatal(err)
	}
	if _, _, runsAfter := f.ScoreStats(); runsAfter != runsBefore {
		t.Fatalf("steady-state period ran %d fresh advisor runs, want 0", runsAfter-runsBefore)
	}
}

// QoS admission control end-to-end: a tight-limited arrival that cannot
// share the single machine is rejected (and reported by ID), then
// admitted once a slot with acceptable degradation exists.
func TestFleetAdmitQoSPublicAPI(t *testing.T) {
	f := NewFleet(&FleetOptions{Delta: 0.1, AdmitQoS: true, MigrationCost: 5})
	if _, err := f.AddServer(MachineProfile{}); err != nil {
		t.Fatal(err)
	}
	schema := tpch.Schema(1)
	if _, err := f.AddTenant("resident", PostgreSQL, schema, []string{tpch.QueryText(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Period(); err != nil {
		t.Fatal(err)
	}
	tight, err := f.AddTenant("tight", PostgreSQL, schema, []string{tpch.QueryText(6)})
	if err != nil {
		t.Fatal(err)
	}
	f.SetQoS(tight, QoS{DegradationLimit: 1.05})
	rep, err := f.Period()
	if err != nil {
		t.Fatal(err)
	}
	rejected := rep.Rejected()
	if len(rejected) != 1 || rejected[0] != "tight" {
		t.Fatalf("tight arrival should be rejected by ID: %v", rejected)
	}
	if reasons := rep.RejectedReasons(); len(reasons) != 1 || reasons[0] != "qos" {
		t.Fatalf("tight arrival should carry the qos reason: %v", reasons)
	}
	if rep.ServerOf(tight) != -1 {
		t.Fatal("rejected tenant must not be placed")
	}
	if rep.Arrivals() != 0 {
		t.Fatalf("rejected tenants are not arrivals: %d", rep.Arrivals())
	}
	// Loosen the limit: the same tenant is admitted next period.
	f.SetQoS(tight, QoS{DegradationLimit: 50})
	rep, err = f.Period()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rejected()) != 0 {
		t.Fatalf("loosened arrival should be admitted: %v", rep.Rejected())
	}
	if rep.ServerOf(tight) != 0 {
		t.Fatal("admitted tenant should be placed")
	}
}

// The long-lived-fleet knobs through the public API: a swept score cache
// plus seeded local search must reproduce the default configuration's
// deployed outcome on this scenario.
func TestFleetLongLivedKnobsPublicAPI(t *testing.T) {
	run := func(opts *FleetOptions) (*Fleet, []*FleetPeriodReport, []*FleetTenant) {
		f := NewFleet(opts)
		for _, p := range []MachineProfile{{}, smallProfile()} {
			if _, err := f.AddServer(p); err != nil {
				t.Fatal(err)
			}
		}
		schema := tpch.Schema(1)
		var handles []*FleetTenant
		for i, q := range []int{1, 6, 14} {
			h, err := f.AddTenant(fmt.Sprintf("t%d", i), PostgreSQL, schema, []string{tpch.QueryText(q)})
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		var reports []*FleetPeriodReport
		for period := 1; period <= 4; period++ {
			if period == 3 {
				// One drift so the runs exercise re-scoring, not just hits.
				if err := f.SetWorkload(handles[0],
					mustWorkload("t0", tpch.QueryText(1), tpch.QueryText(6))); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := f.Period()
			if err != nil {
				t.Fatalf("period %d: %v", period, err)
			}
			reports = append(reports, rep)
		}
		return f, reports, handles
	}
	base, baseReps, baseHandles := run(&FleetOptions{MigrationCost: 5, Delta: 0.1})
	swept, sweptReps, sweptHandles := run(&FleetOptions{
		MigrationCost:   5,
		Delta:           0.1,
		LocalSearch:     2,
		ScoreCacheSweep: 2,
	})
	for p := range baseReps {
		a, b := baseReps[p], sweptReps[p]
		// Seeded local search may legitimately find a different (never
		// worse) candidate; the deployed outcome on this scenario matches.
		if a.TotalCost() != b.TotalCost() || a.Migrations() != b.Migrations() {
			t.Fatalf("period %d diverges under the long-lived knobs: %v/%d vs %v/%d",
				p+1, a.TotalCost(), a.Migrations(), b.TotalCost(), b.Migrations())
		}
		for i := range baseHandles {
			if a.ServerOf(baseHandles[i]) != b.ServerOf(sweptHandles[i]) {
				t.Fatalf("period %d tenant %d server diverges", p+1, i)
			}
		}
	}
	if s, e := swept.CacheSizes(); s == 0 || e == 0 {
		t.Fatalf("swept caches emptied: scores=%d estimates=%d", s, e)
	}
	if s, _ := base.CacheSizes(); s == 0 {
		t.Fatal("default fleet should populate its cache")
	}
	f := NewFleet(nil)
	if s, e := f.CacheSizes(); s != 0 || e != 0 {
		t.Fatal("pre-period fleet must report empty caches")
	}
	if s, e := f.CacheEvictions(); s != 0 || e != 0 {
		t.Fatal("pre-period fleet must report zero evictions")
	}
}
