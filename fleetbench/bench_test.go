package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// toy shrinks a workload to a few servers and operations.
func toy(name string) shape {
	sh := shapes[name]
	sh.servers, sh.tenants = 6, 18
	if sh.restart {
		sh.servers, sh.tenants = 10, 24
	}
	sh.warmup, sh.minOps, sh.setups, sh.fleets = 1, 4, 1, 2
	return sh
}

// toySession runs a toy workload's set-up and a few operations.
func toySession(t *testing.T, name string, seed int64) (*session, *ledger) {
	t.Helper()
	led := &ledger{}
	s := &session{sh: toy(name), g: fleetGen(toy(name), seed, 0), led: led, keep: true}
	if _, _, err := s.start(); err != nil {
		t.Fatalf("%s set-up: %v", name, err)
	}
	if _, _, err := s.window(0, 3, 0, nil); err != nil {
		t.Fatal(err)
	}
	return s, led
}

func TestToyWorkloadsPassTheirChecks(t *testing.T) {
	for _, name := range []string{wSteady, wDrift, wRestart} {
		s, led := toySession(t, name, 7)
		if led.attempted != 3 || led.failed != 0 || led.problems != 0 {
			t.Fatalf("%s: %d attempted, %d failed, %d problems", name, led.attempted, led.failed, led.problems)
		}
		if len(s.digests) != 1+s.sh.warmup+3 {
			t.Fatalf("%s: %d recorded periods", name, len(s.digests))
		}
	}
}

// metricNames reads one metric list of BENCHMARK.json.
func metricNames(t *testing.T, key string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestToyRunsPrintEveryDeclaredMetric(t *testing.T) {
	e2e := metricNames(t, "end_to_end")
	layers := metricNames(t, "per_layer")
	for _, name := range []string{wSteady, wDrift, wRestart} {
		res, err := runMeasured(toy(name), 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Two fleets, two operations each.
		if !res.Correct || res.Failed != 0 || res.Attempted != 4 {
			t.Fatalf("%s untraced: %+v", name, res)
		}
		if got := keys(res.Metrics); strings.Join(got, ",") != strings.Join(e2e, ",") {
			t.Fatalf("%s untraced metrics %v, BENCHMARK.json declares %v", name, got, e2e)
		}
		res, err = runTraced(toy(name), 3, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		// Both passes count: 4 reference and 4 traced operations.
		if !res.Correct || res.Failed != 0 || res.Attempted != 8 {
			t.Fatalf("%s traced: %+v", name, res)
		}
		if got := keys(res.Metrics); strings.Join(got, ",") != strings.Join(layers, ",") {
			t.Fatalf("%s traced metrics %v, BENCHMARK.json declares %v", name, got, layers)
		}
		for k, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
				t.Fatalf("%s %s = %v", name, k, m.Value)
			}
		}
	}
}

// lastView is check (a)'s view of a toy session's last period.
func lastView(s *session) (placementView, []string) {
	rep := s.b.f.Report()
	return viewOf(s.b, rep[len(rep)-1]), s.liveIDs()
}

func TestCheckPlacementRejectsPerturbedOutput(t *testing.T) {
	s, _ := toySession(t, wSteady, 11)
	v, live := lastView(s)
	delta := s.b.opts.Delta
	if err := checkPlacement(v, live, delta, step{}); err != nil {
		t.Fatalf("real output rejected: %v", err)
	}
	perturb := map[string]func(v *placementView){
		"shares sum to 1.01":  func(v *placementView) { v.seats[0].cpu += 0.01 },
		"memory sums to 0.99": func(v *placementView) { v.seats[1].mem -= 0.01 },
		"tenant on two servers": func(v *placementView) {
			dup := v.seats[0]
			dup.server = (dup.server + 1) % v.servers
			v.seats = append(v.seats, dup)
		},
		"tenant missing":      func(v *placementView) { v.seats = v.seats[1:] },
		"server out of range": func(v *placementView) { v.seats[0].server = v.servers },
		"departed still placed": func(v *placementView) {
			v.seats = append(v.seats, seat{tenant: "gone", server: 0, cpu: 0.1, mem: 0.1})
		},
		"share below delta": func(v *placementView) {
			// Move all but 0.05 of one tenant's CPU to a co-tenant, so
			// the sums still hold.
			for i := range v.seats {
				for j := range v.seats {
					if i != j && v.seats[i].server == v.seats[j].server {
						v.seats[j].cpu += v.seats[i].cpu - 0.05
						v.seats[i].cpu = 0.05
						return
					}
				}
			}
			panic("no shared server")
		},
		"arrival not reported": func(v *placementView) { v.arrivals = 1 },
	}
	for name, p := range perturb {
		w := v
		w.seats = append([]seat(nil), v.seats...)
		p(&w)
		if err := checkPlacement(w, live, delta, step{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckServersRejectsPerturbedOutput(t *testing.T) {
	s, _ := toySession(t, wSteady, 5)
	first := s.b.f.Report()[0]
	groups := serverGroups(s.b, first)
	checked := 0
	for srv, members := range groups {
		deployed := make([][2]float64, len(members))
		for i, sp := range members {
			cpu, mem := first.Shares(s.b.handles[sp.id])
			deployed[i] = [2]float64{cpu, mem}
		}
		v, err := verdictFor(srv, members, deployed, s.b.opts.Delta)
		if err != nil {
			t.Fatal(err)
		}
		if err := judgeServer(v); err != nil {
			t.Fatalf("real output rejected: %v", err)
		}
		if v.objective < v.optimum || v.optimum <= 0 {
			t.Fatalf("server %d: objective %v, optimum %v", srv, v.objective, v.optimum)
		}
		below := v
		below.objective = v.optimum * 0.99
		if judgeServer(below) == nil {
			t.Errorf("server %d: objective below the lattice optimum accepted", srv)
		}
		moved := v
		moved.deployed = append([][2]float64(nil), v.deployed...)
		moved.deployed[0][1] += 0.1
		if judgeServer(moved) == nil {
			t.Errorf("server %d: deployed shares off the fresh recommendation accepted", srv)
		}
		if !v.anyLimit {
			worse := v
			worse.objective = v.equal * 1.01
			if judgeServer(worse) == nil {
				t.Errorf("server %d: objective above equal shares accepted", srv)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no occupied server")
	}
}

func TestSameDecisionsRejectsPerturbedRestore(t *testing.T) {
	s, led := toySession(t, wRestart, 9)
	if led.problems != 0 {
		t.Fatalf("restart checks failed")
	}
	rep := s.b.f.Report()
	last := func() decisions { return decisionsOf(s.b, rep[len(rep)-1]) }
	d := last()
	if err := sameDecisions(d, last()); err != nil {
		t.Fatalf("identical reports differ: %v", err)
	}
	if d.digest() != last().digest() {
		t.Fatal("identical reports have different digests")
	}
	perturb := map[string]func(d *decisions){
		"one share changed":   func(d *decisions) { d.tenants[0].cpu += 1e-12 },
		"server changed":      func(d *decisions) { d.tenants[0].server++ },
		"degradation changed": func(d *decisions) { d.tenants[0].degradation *= 1.001 },
		"tenant missing":      func(d *decisions) { d.tenants = d.tenants[1:] },
		"total cost changed":  func(d *decisions) { d.totalCost += 1e-9 },
		"one more migration":  func(d *decisions) { d.migrations++ },
		"one more rebuild":    func(d *decisions) { d.rebuilds++ },
		"period number moved": func(d *decisions) { d.period++ },
	}
	for name, p := range perturb {
		e := last()
		p(&e)
		if sameDecisions(d, e) == nil {
			t.Errorf("%s: accepted by check (c)", name)
		}
		if d.digest() == e.digest() {
			t.Errorf("%s: same digest", name)
		}
	}
	// A restored fleet recomputes every cell, so check (c) ignores the
	// rest of the report; the traced run's digest does not.
	work := map[string]func(d *decisions){
		"one more dirty cell":      func(d *decisions) { d.dirtyCells = append(d.dirtyCells, 99) },
		"one less replayed cell":   func(d *decisions) { d.replayedCells-- },
		"stay cost changed":        func(d *decisions) { d.stay += 1e-9 },
		"one more rebalanced":      func(d *decisions) { d.rebalanced = append(d.rebalanced, "x") },
		"replacement flag flipped": func(d *decisions) { d.replaced = !d.replaced },
	}
	for name, p := range work {
		e := last()
		p(&e)
		if err := sameDecisions(d, e); err != nil {
			t.Errorf("%s: check (c) rejects it: %v", name, err)
		}
		if d.digest() == e.digest() {
			t.Errorf("%s: same digest", name)
		}
	}
}

func TestLattice(t *testing.T) {
	vecs := latticeVectors(5, 0.1)
	if len(vecs) != 126 {
		t.Fatalf("n=5: %d share vectors, want 126", len(vecs))
	}
	vals, _ := latticeShares(5, 0.1)
	for _, v := range vecs {
		sum := 0.0
		for _, i := range v {
			sum += vals[i]
			if vals[i] < 0.1-shareTol {
				t.Fatalf("share %v below delta", vals[i])
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("vector %v sums to %v", v, sum)
		}
	}
	if n := len(latticeVectors(10, 0.1)); n != 1 {
		t.Fatalf("n=10: %d vectors, want only equal shares", n)
	}
	// Two tenants with cost a/cpu + b/mem: the optimum gives each
	// resource to whoever needs it more, within the grid.
	a := []float64{1, 4}
	cost := func(i int, cpu, mem float64) (float64, error) { return a[i]/cpu + a[1-i]/mem, nil }
	opt, err := latticeOptimum(2, 0.1, []float64{1, 1}, cost)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Inf(1)
	for c := 0.1; c < 0.95; c += 0.1 {
		for m := 0.1; m < 0.95; m += 0.1 {
			v := a[0]/c + a[1]/m + a[1]/(1-c) + a[0]/(1-m)
			want = math.Min(want, v)
		}
	}
	if math.Abs(opt-want) > 1e-9 {
		t.Fatalf("lattice optimum %v, want %v", opt, want)
	}
}

func TestGeneratorIsSeededAndBalanced(t *testing.T) {
	a := newGen(4, wDrift).population(40)
	b := newGen(4, wDrift).population(40)
	c := newGen(5, wDrift).population(40)
	same, differ := true, false
	kinds := map[string]int{}
	qos := 0
	for i := range a {
		if a[i].id != b[i].id || a[i].desc != b[i].desc || a[i].qos != b[i].qos || a[i].flavor != b[i].flavor {
			same = false
		}
		if a[i].desc != c[i].desc {
			differ = true
		}
		kinds[a[i].kind]++
		if a[i].qos.GainFactor > 0 || a[i].qos.DegradationLimit > 0 {
			qos++
		}
	}
	if !same || !differ {
		t.Fatalf("seeding: same seed equal %v, other seed differs %v", same, differ)
	}
	if kinds[kindTPCC] != 10 || kinds[kindTPCH] != 30 || qos != 8 {
		t.Fatalf("make-up: %v, %d with QoS", kinds, qos)
	}
}

func TestMinorChangeStaysUnderTau(t *testing.T) {
	g := newGen(2, wDrift)
	m := machineOf(profiles[0])
	ref := core.Allocation{0.5, 0.5}
	checked := 0
	for _, s := range g.population(40) {
		if len(s.base.Statements) < 2 {
			continue
		}
		before, err := estimatorFor(s, m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := before.AvgEstimatePerQuery(ref)
		if err != nil {
			t.Fatal(err)
		}
		g.minorChange(s)
		after, err := estimatorFor(s, m)
		if err != nil {
			t.Fatal(err)
		}
		x, err := after.AvgEstimatePerQuery(ref)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(x-b) / b; rel >= 0.1 || rel <= 1e-9 {
			t.Fatalf("%s %s: minor change moves the per-query average by %v", s.id, s.desc, rel)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no multi-statement tenant")
	}
}
