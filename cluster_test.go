package vdesign

import (
	"math"
	"testing"

	"repro/internal/calibrate"
	"repro/internal/tpcc"
	"repro/internal/tpch"
)

// newTestCluster builds a 2-server cluster with four tenants of distinct
// resource appetites.
func newTestCluster(t *testing.T) (*Cluster, []*ClusterTenant) {
	t.Helper()
	c, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		c.AddServer()
	}
	schema := tpch.Schema(1)
	var handles []*ClusterTenant
	for i, qs := range [][]string{
		{tpch.QueryText(1), tpch.QueryText(6)},
		{tpch.QueryText(3), tpch.QueryText(12)},
		{tpch.QueryText(14), tpch.QueryText(19)},
		{tpch.QueryText(4)},
	} {
		h, err := c.AddTenant(string(rune('a'+i)), PostgreSQL, schema, qs)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	return c, handles
}

func TestClusterPlaceAssignsEveryTenant(t *testing.T) {
	c, handles := newTestCluster(t)
	rec, err := c.Place(nil)
	if err != nil {
		t.Fatal(err)
	}
	perServer := map[int][]float64{}
	for _, h := range handles {
		s := rec.ServerOf(h)
		if s < 0 || s >= c.Servers() {
			t.Fatalf("tenant %s on out-of-range server %d", h.Name(), s)
		}
		cpu, mem := rec.Shares(h)
		if cpu <= 0 || mem <= 0 || cpu > 1 || mem > 1 {
			t.Fatalf("tenant %s shares (%v, %v)", h.Name(), cpu, mem)
		}
		if rec.EstimatedSeconds(h) <= 0 || rec.Degradation(h) < 1 {
			t.Fatalf("tenant %s: est %v deg %v", h.Name(), rec.EstimatedSeconds(h), rec.Degradation(h))
		}
		perServer[s] = append(perServer[s], cpu)
	}
	// Each occupied server's CPU shares must sum to the whole machine.
	for s, cpus := range perServer {
		sum := 0.0
		for _, v := range cpus {
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("server %d CPU shares sum to %v", s, sum)
		}
	}
	// TenantsOn must agree with ServerOf.
	for s := 0; s < c.Servers(); s++ {
		for _, h := range rec.TenantsOn(s) {
			if rec.ServerOf(h) != s {
				t.Fatalf("TenantsOn(%d) returned tenant assigned to %d", s, rec.ServerOf(h))
			}
		}
	}
	if rec.TotalCost() <= 0 {
		t.Fatal("placement must report a positive total cost")
	}
}

// Acceptance criterion: Place returns deterministic tenant→server
// assignments and allocations, bit-identical at Parallelism 1 vs 8.
func TestClusterPlaceParallelParity(t *testing.T) {
	cSeq, hSeq := newTestCluster(t)
	recSeq, err := cSeq.Place(&Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cPar, hPar := newTestCluster(t)
	recPar, err := cPar.Place(&Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if recSeq.TotalCost() != recPar.TotalCost() {
		t.Fatalf("total cost diverges: %v vs %v", recSeq.TotalCost(), recPar.TotalCost())
	}
	for i := range hSeq {
		if recSeq.ServerOf(hSeq[i]) != recPar.ServerOf(hPar[i]) {
			t.Fatalf("tenant %d assigned to %d vs %d",
				i, recSeq.ServerOf(hSeq[i]), recPar.ServerOf(hPar[i]))
		}
		cs, ms := recSeq.Shares(hSeq[i])
		cp, mp := recPar.Shares(hPar[i])
		if cs != cp || ms != mp {
			t.Fatalf("tenant %d: shares diverge: (%v,%v) vs (%v,%v)", i, cs, ms, cp, mp)
		}
		if recSeq.EstimatedSeconds(hSeq[i]) != recPar.EstimatedSeconds(hPar[i]) {
			t.Fatalf("tenant %d: estimates diverge", i)
		}
	}
}

// Acceptance criterion: constructing a second Server or Cluster performs
// zero additional calibration runs (the process-wide calibration cache).
func TestSecondServerAndClusterNeedNoCalibration(t *testing.T) {
	if _, err := NewServer(); err != nil { // ensure the profile is calibrated
		t.Fatal(err)
	}
	before := calibrate.Runs()
	if _, err := NewServer(); err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		c.AddServer()
	}
	if _, err := c.AddTenant("t", DB2, tpch.Schema(1), []string{tpch.QueryText(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(nil); err != nil {
		t.Fatal(err)
	}
	if got := calibrate.Runs() - before; got != 0 {
		t.Fatalf("second server + 4-server cluster ran %d calibrations, want 0", got)
	}
}

func TestClusterQoSAndMixedFlavors(t *testing.T) {
	c, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		c.AddServer()
	}
	dss, err := c.AddTenant("dss", PostgreSQL, tpch.Schema(1), []string{tpch.QueryText(1), tpch.QueryText(18)})
	if err != nil {
		t.Fatal(err)
	}
	oltp, err := c.AddTenantWorkload("oltp", DB2, tpcc.Schema(5), tpcc.Mix(5, 10, 1).Scale(0.002))
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.AddTenant("other", DB2, tpch.Schema(1), []string{tpch.QueryText(17)})
	if err != nil {
		t.Fatal(err)
	}
	c.SetQoS(oltp, QoS{DegradationLimit: 2})
	rec, err := c.Place(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*ClusterTenant{dss, oltp, other} {
		if rec.EstimatedSeconds(h) <= 0 {
			t.Fatalf("tenant %s: no estimate", h.Name())
		}
	}
	if d := rec.Degradation(oltp); d > 2+1e-9 {
		t.Fatalf("oltp degradation limit not honored: %vx", d)
	}
}

func TestClusterValidation(t *testing.T) {
	c, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	// Tenants may be registered before servers; only Place needs both.
	if _, err := c.AddTenant("x", PostgreSQL, tpch.Schema(1), []string{tpch.QueryText(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(nil); err == nil {
		t.Fatal("placing with no servers should error")
	}
	empty, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	empty.AddServer()
	if _, err := empty.Place(nil); err == nil {
		t.Fatal("placing with no tenants should error")
	}
	if _, err := c.AddTenant("y", Flavor(42), tpch.Schema(1), []string{tpch.QueryText(1)}); err == nil {
		t.Fatal("unknown flavor should error")
	}
}

// Local search through the public API: never costlier than greedy,
// bit-identical across Parallelism, and the per-call score cache reports
// its traffic.
func TestClusterPlaceLocalSearch(t *testing.T) {
	c, handles := newTestCluster(t)
	greedy, err := c.Place(&Options{Delta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.LocalSearchMoves() != 0 || greedy.LocalSearchImprovement() != 0 {
		t.Fatalf("local search off must be a no-op: %d moves", greedy.LocalSearchMoves())
	}
	refined, err := c.Place(&Options{Delta: 0.1, LocalSearch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if refined.TotalCost() > greedy.TotalCost()+1e-9 {
		t.Fatalf("local search worsened the placement: %v > %v",
			refined.TotalCost(), greedy.TotalCost())
	}
	if refined.GreedyCost() != greedy.TotalCost() {
		t.Fatalf("GreedyCost %v should equal the greedy objective %v",
			refined.GreedyCost(), greedy.TotalCost())
	}
	if got := refined.GreedyCost() - refined.TotalCost(); got != refined.LocalSearchImprovement() {
		t.Fatalf("improvement accounting: %v vs %v", got, refined.LocalSearchImprovement())
	}
	if _, _, runs := refined.ScoreStats(); runs == 0 {
		t.Fatal("placement should report its advisor runs")
	}
	par, err := c.Place(&Options{Delta: 0.1, LocalSearch: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.TotalCost() != refined.TotalCost() {
		t.Fatalf("parallel local search diverges: %v vs %v", par.TotalCost(), refined.TotalCost())
	}
	for _, h := range handles {
		if par.ServerOf(h) != refined.ServerOf(h) {
			t.Fatalf("tenant %s server diverges across parallelism", h.Name())
		}
		c1, m1 := refined.Shares(h)
		c2, m2 := par.Shares(h)
		if c1 != c2 || m1 != m2 {
			t.Fatalf("tenant %s shares diverge across parallelism", h.Name())
		}
	}
}

// newGoldenCluster builds the cluster TestClusterPlaceGolden pins: three
// default servers and seven tenants mixing PostgreSQL and DB2 TPC-H
// queries with one DB2 TPC-C mix, one tenant under a degradation limit
// and one with a gain factor.
func newGoldenCluster(t *testing.T) (*Cluster, []*ClusterTenant) {
	t.Helper()
	c, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		c.AddServer()
	}
	schema := tpch.Schema(1)
	var handles []*ClusterTenant
	for _, spec := range []struct {
		name    string
		flavor  Flavor
		queries []int
	}{
		{"pg-scan", PostgreSQL, []int{1, 6}},
		{"pg-join", PostgreSQL, []int{3, 12}},
		{"db2-big", DB2, []int{18, 21}},
		{"pg-promo", PostgreSQL, []int{14, 19}},
		{"db2-mix", DB2, []int{4, 9}},
		{"pg-sub", PostgreSQL, []int{17}},
	} {
		var qs []string
		for _, q := range spec.queries {
			qs = append(qs, tpch.QueryText(q))
		}
		h, err := c.AddTenant(spec.name, spec.flavor, schema, qs)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	oltp, err := c.AddTenantWorkload("db2-oltp", DB2, tpcc.Schema(5), tpcc.Mix(5, 10, 1).Scale(0.002))
	if err != nil {
		t.Fatal(err)
	}
	handles = append(handles, oltp)
	c.SetQoS(handles[1], QoS{DegradationLimit: 2.5})
	c.SetQoS(handles[4], QoS{GainFactor: 3})
	return c, handles
}

// Cluster's results, pinned: the server, the IEEE-754 bits of the
// shares, estimate and degradation of every tenant, and the objective
// before and after local search. The values were recorded from the
// placement enumerator before its cell search was removed, and must not
// move at any Parallelism. (Local search applies one swap here, of
// pg-scan and db2-big, whose gain is lost in rounding: TotalCost equals
// GreedyCost bit for bit.)
func TestClusterPlaceGolden(t *testing.T) {
	want := []struct {
		name               string
		server             int
		cpu, mem, est, deg uint64
	}{
		{"pg-scan", 1, 0x3fe0000000000000, 0x3fe0000000000000, 0x4046770aca43a24a, 0x400000000108f0ad},
		{"pg-join", 1, 0x3fe0000000000000, 0x3fe0000000000000, 0x40446416fac2df66, 0x3ffe4c454696af95},
		{"db2-big", 2, 0x3fe0000000000000, 0x3fe0000000000000, 0x404cb3750a916384, 0x4000000000000004},
		{"pg-promo", 0, 0x3fc1111111111110, 0x3fd5555555555555, 0x402d822965bd2d63, 0x401dfffffd3ae97f},
		{"db2-mix", 0, 0x3fe7777777777777, 0x3fd5555555555555, 0x40311e2835d765e8, 0x3ff5d1745d1745d4},
		{"pg-sub", 0, 0x3fc1111111111110, 0x3fd5555555555555, 0x4000f5b51c4125ad, 0x401dfffffde7b231},
		{"db2-oltp", 2, 0x3fe0000000000000, 0x3fe0000000000000, 0x404954e17fa9df41, 0x4000000000000004},
	}
	const (
		wantTotal  = 0x4070601349670760
		wantGreedy = 0x4070601349670760
		wantMoves  = 1
	)
	for _, workers := range []int{1, 4} {
		c, handles := newGoldenCluster(t)
		rec, err := c.Place(&Options{Delta: 0.1, LocalSearch: 2, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range handles {
			w := want[i]
			cpu, mem := rec.Shares(h)
			got := [...]uint64{math.Float64bits(cpu), math.Float64bits(mem),
				math.Float64bits(rec.EstimatedSeconds(h)), math.Float64bits(rec.Degradation(h))}
			if h.Name() != w.name || rec.ServerOf(h) != w.server || got != [...]uint64{w.cpu, w.mem, w.est, w.deg} {
				t.Errorf("P%d tenant %s: server %d, bits %#x; want %s on %d, bits %#x",
					workers, h.Name(), rec.ServerOf(h), got, w.name, w.server, [...]uint64{w.cpu, w.mem, w.est, w.deg})
			}
		}
		if got := math.Float64bits(rec.TotalCost()); got != wantTotal {
			t.Errorf("P%d TotalCost bits %#x, want %#x", workers, got, uint64(wantTotal))
		}
		if got := math.Float64bits(rec.GreedyCost()); got != wantGreedy {
			t.Errorf("P%d GreedyCost bits %#x, want %#x", workers, got, uint64(wantGreedy))
		}
		if got := rec.LocalSearchMoves(); got != wantMoves {
			t.Errorf("P%d LocalSearchMoves %d, want %d", workers, got, wantMoves)
		}
	}
}
