package fleet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
)

// The pairwise-conflict regression batch admission exists to close: two
// arrivals that each pass the incumbent-only check but jointly overflow
// a machine's QoS. One "big" machine (MinShare 0.25), a resident with
// degradation limit 1.8: beside ONE equal-weight arrival the advisor can
// hold the resident at ~1.33×, but beside two the resident caps at 0.5
// shares (the others keep their MinShare floor) — 2.0× — so the limit is
// unsatisfiable. Under the old per-arrival check both slipped through
// and the resident's QoS broke; the batch check admits the first arrival
// (input order — deterministically) and rejects the second with the
// batch-conflict reason.
func TestFleetBatchAdmissionSplitsJointConflict(t *testing.T) {
	sf := &simFleet{profiles: []string{"big"}, factors: map[string]float64{"big": 1}}
	mkOpts := func() Options {
		return Options{
			Profiles:      sf.profiles,
			MigrationCost: 5,
			AdmitQoS:      true,
			Core:          core.Options{Delta: 0.25, MinShare: 0.25},
		}
	}
	resident := func() *simTenant { return &simTenant{id: "r", alpha: 30, gamma: 10, limit: 1.8} }
	x := func() *simTenant { return &simTenant{id: "x", alpha: 30, gamma: 10} }
	y := func() *simTenant { return &simTenant{id: "y", alpha: 30, gamma: 10} }

	o, err := New(mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Period(sf.inputs([]*simTenant{resident()})); err != nil {
		t.Fatal(err)
	}

	// Sanity: each arrival alone IS admissible beside the resident — the
	// conflict only exists jointly.
	probe, err := New(mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Period(sf.inputs([]*simTenant{resident()})); err != nil {
		t.Fatal(err)
	}
	rep, err := probe.Period(sf.inputs([]*simTenant{resident(), x()}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rejected) != 0 || rep.QoSViolations != 0 {
		t.Fatalf("single arrival must be admissible alone: %+v", rep)
	}

	// The batch: both arrive in one period. Deterministic split — x (first
	// in input order) admitted, y rejected as a batch conflict.
	rep, err = o.Period(sf.inputs([]*simTenant{resident(), x(), y()}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rejected) != 1 || rep.Rejected[0] != "y" {
		t.Fatalf("want y rejected, got %v", rep.Rejected)
	}
	if len(rep.RejectedReasons) != 1 || rep.RejectedReasons[0] != RejectBatchConflict {
		t.Fatalf("want batch-conflict reason, got %v", rep.RejectedReasons)
	}
	if _, ok := rep.Assignment["x"]; !ok {
		t.Fatal("first arrival of the batch must be admitted")
	}
	if rep.QoSViolations != 0 {
		t.Fatalf("the admitted fleet must honor the resident's limit: %d violations", rep.QoSViolations)
	}
	if rep.Arrivals != 1 {
		t.Fatalf("rejected tenants must not count as arrivals: %d", rep.Arrivals)
	}

	// Resubmitted next period without the conflict partner departing, y is
	// now a genuine QoS rejection (the machine is full of its conflict);
	// after x departs, y is admitted — the "resubmit next period" story.
	rep, err = o.Period(sf.inputs([]*simTenant{resident(), x(), y()}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RejectedReasons) != 1 || rep.RejectedReasons[0] != RejectQoS {
		t.Fatalf("resubmission against a full machine is a QoS rejection, got %v", rep.RejectedReasons)
	}
	rep, err = o.Period(sf.inputs([]*simTenant{resident(), y()}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rejected) != 0 {
		t.Fatalf("y must be admitted once x departed: %v", rep.Rejected)
	}
}

// Every rejection reason surfaces distinctly: capacity (no slot
// anywhere), QoS (inadmissible even alone), batch-conflict (admissible
// alone, not jointly) — aligned index-by-index with Rejected.
func TestFleetRejectReasons(t *testing.T) {
	sf := &simFleet{profiles: []string{"big"}, factors: map[string]float64{"big": 1}}
	o, err := New(Options{
		Profiles:      sf.profiles,
		MigrationCost: 5,
		AdmitQoS:      true,
		Core:          core.Options{Delta: 0.1, MinShare: 0.5}, // capacity 2
	})
	if err != nil {
		t.Fatal(err)
	}
	a := &simTenant{id: "a", alpha: 50, gamma: 10}
	if _, err := o.Period(sf.inputs([]*simTenant{a})); err != nil {
		t.Fatal(err)
	}
	// One slot left: the tight-limited q cannot share with anyone (a QoS
	// rejection that consumes no slot), b takes the last slot, and c is
	// blocked only because b's admission consumed it — c fits beside the
	// incumbent alone, so that is a batch conflict, not a capacity
	// rejection. One batch, two reasons.
	b := &simTenant{id: "b", alpha: 40, gamma: 10}
	c := &simTenant{id: "c", alpha: 30, gamma: 10}
	tight := &simTenant{id: "q", alpha: 40, gamma: 10, limit: 1.01}
	rep, err := o.Period(sf.inputs([]*simTenant{a, tight, b, c}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rejected) != 2 || rep.Rejected[0] != "q" || rep.Rejected[1] != "c" {
		t.Fatalf("rejected: %v", rep.Rejected)
	}
	if rep.RejectedReasons[0] != RejectQoS {
		t.Fatalf("tight-limited arrival: want qos, got %v", rep.RejectedReasons[0])
	}
	if rep.RejectedReasons[1] != RejectBatchConflict {
		t.Fatalf("slot taken by the batch: want batch-conflict, got %v", rep.RejectedReasons[1])
	}
	if _, ok := rep.Assignment["b"]; !ok {
		t.Fatal("b should have taken the last slot")
	}

	// Resubmitted against the now-full incumbents, c is a genuine
	// capacity rejection: every slot was taken before the period began.
	rep, err = o.Period(sf.inputs([]*simTenant{a, b, c}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rejected) != 1 || rep.Rejected[0] != "c" {
		t.Fatalf("rejected: %v", rep.Rejected)
	}
	if rep.RejectedReasons[0] != RejectCapacity {
		t.Fatalf("incumbent-full fleet: want capacity, got %v", rep.RejectedReasons[0])
	}
	for _, want := range []string{"capacity", "qos", "batch-conflict"} {
		found := false
		for _, r := range []RejectReason{RejectCapacity, RejectQoS, RejectBatchConflict} {
			if r.String() == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("reason %q has no constant", want)
		}
	}
	if got := RejectReason(99).String(); got != "reason(99)" {
		t.Fatalf("unknown reason renders %q", got)
	}
}

// In a steady state the seeded candidate coincides with
// greedy-from-scratch packing: seeded from an incumbent that fresh
// packing would reproduce, local search finds nothing to improve. The
// scratch reference is placement.Place over the same tenants with the
// fleet's one-cell placement options, as the shadow soak computes it.
// Every period recomputes its cell, so the seeded search actually runs.
func TestFleetIncrementalSteadyMatchesScratch(t *testing.T) {
	sf := newSimFleet()
	tenants := baseTenants()
	opts := Options{
		Profiles:      sf.profiles,
		MigrationCost: 5,
		LocalSearch:   20,
		Core:          core.Options{Delta: 0.1},
	}
	o, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	popts := placement.Options{Profiles: opts.Profiles, Core: opts.Core, LocalSearch: opts.LocalSearch}
	for p := 1; p <= 4; p++ {
		inputs := sf.inputs(tenants)
		if err := o.SetOptions(opts); err != nil {
			t.Fatal(err)
		}
		rep, err := o.Period(inputs)
		if err != nil {
			t.Fatal(err)
		}
		placed := make([]placement.Tenant, len(inputs))
		for i, in := range inputs {
			placed[i] = placement.Tenant{Name: in.ID, EstFor: in.EstFor,
				Gain: in.Gain, Limit: in.Limit, Fingerprint: in.Fingerprint}
		}
		scratch, err := placement.Place(placed, popts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.CandidateCost != scratch.TotalCost {
			t.Fatalf("period %d: seeded candidate %v vs scratch %v", p, rep.CandidateCost, scratch.TotalCost)
		}
		for i, in := range inputs {
			if rep.Assignment[in.ID] != scratch.Assignment[i] {
				t.Fatalf("period %d tenant %s: server %d vs scratch %d",
					p, in.ID, rep.Assignment[in.ID], scratch.Assignment[i])
			}
		}
		if p > 1 && (rep.Migrations != 0 || rep.LocalSearchImprovement != 0) {
			t.Fatalf("period %d: steady seeded search moved %d tenants (improvement %v)",
				p, rep.Migrations, rep.LocalSearchImprovement)
		}
	}
}

// Seeded search keeps the steady-state guarantee: after convergence a
// period performs zero fresh advisor runs, seeded search included (the
// periods recompute, so the search actually runs instead of replaying).
func TestFleetIncrementalSteadyStateZeroRuns(t *testing.T) {
	sf := newSimFleet()
	tenants := baseTenants()
	o, err := New(Options{
		Profiles:      sf.profiles,
		MigrationCost: 5,
		LocalSearch:   5,
		Core:          core.Options{Delta: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	converge(t, o, sf.inputs(tenants), 8)
	_, _, before := o.ScoreStats()
	if err := recomputePeriod(t, o, sf.inputs(tenants)); err != nil {
		t.Fatal(err)
	}
	if _, _, after := o.ScoreStats(); after != before {
		t.Fatalf("seeded steady period ran %d fresh advisor runs", after-before)
	}
}
