package main

// Output checks. Each is computed apart from the program: placement
// invariants from the report and the script (a), a fresh single-server
// recommendation and a brute-force lattice search (b), and the
// uninterrupted fleet (c). The judging functions take plain values so
// the tests can hand them deliberately perturbed outputs.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/db2sim"
	"repro/internal/dbms"
	"repro/internal/pgsim"
	"repro/internal/vmsim"

	vdesign "repro"
)

// shareTol bounds float error in share sums and floors.
const shareTol = 1e-9

// seat is one tenant's place in a period's output.
type seat struct {
	tenant   string
	server   int
	cpu, mem float64
}

// placementView is one period's output as check (a) reads it.
type placementView struct {
	servers              int
	seats                []seat
	arrivals, departures int
}

// viewOf reads a report through the public API: every live tenant's
// server and shares, plus any departed tenant the report still places.
func viewOf(b *bench, rep *vdesign.FleetPeriodReport) placementView {
	v := placementView{servers: b.f.Servers(), arrivals: rep.Arrivals(), departures: rep.Departures()}
	for _, s := range b.live {
		h := b.handles[s.id]
		cpu, mem := rep.Shares(h)
		v.seats = append(v.seats, seat{tenant: s.id, server: rep.ServerOf(h), cpu: cpu, mem: mem})
	}
	for _, h := range b.departed {
		if srv := rep.ServerOf(h); srv >= 0 {
			cpu, mem := rep.Shares(h)
			v.seats = append(v.seats, seat{tenant: h.ID(), server: srv, cpu: cpu, mem: mem})
		}
	}
	return v
}

// checkPlacement is check (a): each live tenant sits on exactly one
// existing server and nothing else is placed; every occupied server's
// CPU and memory shares each sum to 1 with no share below delta; and the
// period saw exactly the arrivals and departures the script made.
func checkPlacement(v placementView, live []string, delta float64, want step) error {
	isLive := make(map[string]bool, len(live))
	for _, id := range live {
		isLive[id] = true
	}
	count := make(map[string]int, len(live))
	sums := map[int]*[2]float64{}
	for _, s := range v.seats {
		if !isLive[s.tenant] {
			return fmt.Errorf("tenant %s is placed but not live", s.tenant)
		}
		if s.server < 0 || s.server >= v.servers {
			return fmt.Errorf("tenant %s is on server %d of %d", s.tenant, s.server, v.servers)
		}
		count[s.tenant]++
		if s.cpu < delta-shareTol || s.mem < delta-shareTol {
			return fmt.Errorf("tenant %s holds shares (%v, %v) below delta %v", s.tenant, s.cpu, s.mem, delta)
		}
		sum := sums[s.server]
		if sum == nil {
			sum = &[2]float64{}
			sums[s.server] = sum
		}
		sum[0] += s.cpu
		sum[1] += s.mem
	}
	for _, id := range live {
		if count[id] != 1 {
			return fmt.Errorf("tenant %s is on %d servers", id, count[id])
		}
	}
	for srv, sum := range sums {
		if math.Abs(sum[0]-1) > shareTol || math.Abs(sum[1]-1) > shareTol {
			return fmt.Errorf("server %d shares sum to (%v, %v)", srv, sum[0], sum[1])
		}
	}
	if v.arrivals != want.arrivals || v.departures != want.departures {
		return fmt.Errorf("report has %d arrivals and %d departures, script made %d and %d",
			v.arrivals, v.departures, want.arrivals, want.departures)
	}
	return nil
}

// serverGroups lists each occupied server's tenants in registration
// order.
func serverGroups(b *bench, rep *vdesign.FleetPeriodReport) map[int][]*spec {
	groups := map[int][]*spec{}
	for _, s := range b.live {
		if srv := rep.ServerOf(b.handles[s.id]); srv >= 0 {
			groups[srv] = append(groups[srv], s)
		}
	}
	return groups
}

// sampleServers picks up to k occupied servers, seeded.
func sampleServers(groups map[int][]*spec, k int, g *gen) []int {
	var all []int
	for srv := range groups {
		all = append(all, srv)
	}
	sort.Ints(all)
	if len(all) <= k {
		return all
	}
	perm := g.rng.Perm(len(all))
	out := make([]int, k)
	for i := range out {
		out[i] = all[perm[i]]
	}
	sort.Ints(out)
	return out
}

// estimatorFor builds the benchmark's own what-if estimator for a
// tenant on a machine: its own DBMS instance, the machine profile's
// calibration, and the tenant's current workload.
func estimatorFor(s *spec, m *vmsim.Machine) (*core.WhatIfEstimator, error) {
	est := &core.WhatIfEstimator{Workload: s.w, MachineMemBytes: m.HW.MemoryBytes}
	switch s.flavor {
	case vdesign.PostgreSQL:
		cal, err := calibrate.PGFor(m, calibrate.Options{})
		if err != nil {
			return nil, err
		}
		est.Sys = pgsim.New(s.schema)
		est.Params = func(a dbms.Alloc) any { return cal.Params(a) }
		est.Renorm = cal.Renorm()
	case vdesign.DB2:
		cal, err := calibrate.DB2For(m, calibrate.Options{})
		if err != nil {
			return nil, err
		}
		est.Sys = db2sim.New(s.schema)
		est.Params = func(a dbms.Alloc) any { return cal.Params(a) }
		est.Renorm = cal.Renorm()
	default:
		return nil, fmt.Errorf("unknown flavor %d", s.flavor)
	}
	return est, nil
}

// newSystem builds the benchmark's own DBMS instance for a tenant.
func newSystem(s *spec) dbms.System {
	if s.flavor == vdesign.DB2 {
		return db2sim.New(s.schema)
	}
	return pgsim.New(s.schema)
}

// latticeShares lists the values one tenant's share takes on the grid
// the greedy search walks: 1/n + kδ for integer k, at least δ and at
// most 1.
func latticeShares(n int, delta float64) (vals []float64, kmin int) {
	base := 1 / float64(n)
	kmin = int(math.Ceil((delta-base)/delta - 1e-9))
	kmax := int(math.Floor((1-base)/delta + 1e-9))
	for k := kmin; k <= kmax; k++ {
		vals = append(vals, base+float64(k)*delta)
	}
	return vals, kmin
}

// latticeVectors enumerates the share vectors of n tenants on the grid
// that sum to 1, as indexes into latticeShares' values.
func latticeVectors(n int, delta float64) [][]int {
	vals, kmin := latticeShares(n, delta)
	var out [][]int
	cur := make([]int, n)
	// With k_i = kmin + idx_i, sum k = 0 means sum idx = -n*kmin.
	target := -n * kmin
	var rec func(i, left int)
	rec = func(i, left int) {
		if i == n-1 {
			if left < len(vals) {
				cur[i] = left
				out = append(out, append([]int(nil), cur...))
			}
			return
		}
		for idx := 0; idx <= left && idx < len(vals); idx++ {
			cur[i] = idx
			rec(i+1, left-idx)
		}
	}
	rec(0, target)
	return out
}

// costFn estimates tenant i's cost (seconds) at a (cpu, mem) share.
type costFn func(i int, cpu, mem float64) (float64, error)

// latticeOptimum brute-forces the smallest gain-weighted objective over
// every (CPU vector, memory vector) pair on the lattice, ignoring
// degradation limits, so it bounds every lattice point (the greedy
// search's result, limits or not) from below. Each grid cost
// is the lower envelope over the memory value and its two float
// neighbours: the greedy search reaches a grid point by adding and
// subtracting δ, which can land one ulp beside it, and the deployed plan
// is chosen per 32 MB memory bucket, so a point on a bucket edge may be
// priced with either neighbouring plan. The envelope keeps the optimum a
// lower bound for every path to the point.
func latticeOptimum(n int, delta float64, gains []float64, cost costFn) (float64, error) {
	vals, _ := latticeShares(n, delta)
	// table[i][c][m] = gains[i] * cost of tenant i at (vals[c], vals[m]).
	table := make([][][]float64, n)
	for i := 0; i < n; i++ {
		table[i] = make([][]float64, len(vals))
		for c, cv := range vals {
			table[i][c] = make([]float64, len(vals))
			for m, mv := range vals {
				best := math.Inf(1)
				for _, x := range []float64{math.Nextafter(mv, 0), mv, math.Nextafter(mv, 2)} {
					sec, err := cost(i, cv, x)
					if err != nil {
						return 0, err
					}
					best = math.Min(best, sec)
				}
				table[i][c][m] = gains[i] * best
			}
		}
	}
	vecs := latticeVectors(n, delta)
	opt := math.Inf(1)
	for _, cv := range vecs {
		for _, mv := range vecs {
			t := 0.0
			for i := 0; i < n; i++ {
				t += table[i][cv[i]][mv[i]]
			}
			if t < opt {
				opt = t
			}
		}
	}
	return opt, nil
}

// serverVerdict is what check (b) compares for one occupied server.
type serverVerdict struct {
	server   int
	ids      []string
	deployed [][2]float64 // the fleet's shares, registration order
	fresh    [][2]float64 // a fresh Server.Recommend's shares
	// objective is the fresh recommendation's gain-weighted estimated
	// cost; optimum is the lattice brute force; equal is the equal-share
	// objective, and anyLimit whether a member has a degradation limit.
	objective, optimum, equal float64
	anyLimit                  bool
}

// judgeServer is check (b)'s verdict: the deployed shares equal the
// fresh recommendation, whose objective is no better than the lattice
// optimum and, without degradation limits, no worse than equal shares.
func judgeServer(v serverVerdict) error {
	for i := range v.ids {
		if v.deployed[i] != v.fresh[i] {
			return fmt.Errorf("server %d tenant %s: deployed shares %v, fresh recommendation %v",
				v.server, v.ids[i], v.deployed[i], v.fresh[i])
		}
	}
	tol := 1e-9 * math.Max(1, math.Abs(v.optimum))
	if v.objective < v.optimum-tol {
		return fmt.Errorf("server %d: objective %v below the lattice optimum %v", v.server, v.objective, v.optimum)
	}
	if !v.anyLimit && v.objective > v.equal+1e-9*math.Max(1, math.Abs(v.equal)) {
		return fmt.Errorf("server %d: objective %v above the equal-share objective %v", v.server, v.objective, v.equal)
	}
	return nil
}

// verdictFor re-derives one server's answer for check (b): a fresh
// vdesign.Server on the server's profile with the same tenants in
// registration order, and the brute-force lattice over the benchmark's
// own estimators.
func verdictFor(srv int, members []*spec, deployed [][2]float64, delta float64) (serverVerdict, error) {
	v := serverVerdict{server: srv, deployed: deployed}
	m := machineOf(profileOf(srv))
	server, err := vdesign.NewServerOn(m)
	if err != nil {
		return v, err
	}
	n := len(members)
	hs := make([]*vdesign.TenantHandle, n)
	gains := make([]float64, n)
	ests := make([]*core.WhatIfEstimator, n)
	for i, s := range members {
		h, err := server.AddTenantWorkload(s.id, s.flavor, s.schema, s.w)
		if err != nil {
			return v, err
		}
		server.SetQoS(h, s.qos)
		hs[i] = h
		gains[i] = 1
		if s.qos.GainFactor >= 1 {
			gains[i] = s.qos.GainFactor
		}
		if s.qos.DegradationLimit >= 1 {
			v.anyLimit = true
		}
		if ests[i], err = estimatorFor(s, m); err != nil {
			return v, err
		}
		v.ids = append(v.ids, s.id)
	}
	rec, err := server.Recommend(&vdesign.Options{Delta: delta, Parallelism: 2})
	if err != nil {
		return v, err
	}
	for i, h := range hs {
		cpu, mem := rec.Shares(h)
		v.fresh = append(v.fresh, [2]float64{cpu, mem})
		v.objective += gains[i] * rec.EstimatedSeconds(h)
	}
	cost := func(i int, cpu, mem float64) (float64, error) {
		sec, _, err := ests[i].Estimate(core.Allocation{cpu, mem})
		return sec, err
	}
	if v.optimum, err = latticeOptimum(n, delta, gains, cost); err != nil {
		return v, err
	}
	eq := 1 / float64(n)
	for i := range members {
		sec, err := cost(i, eq, eq)
		if err != nil {
			return v, err
		}
		v.equal += gains[i] * sec
	}
	return v, nil
}

// checkedServers is how many occupied servers of each fleet check (b)
// re-derives.
const checkedServers = 2

// checkServers is check (b) over a seeded sample of occupied servers
// after the first period.
func checkServers(b *bench, rep *vdesign.FleetPeriodReport, g *gen) error {
	groups := serverGroups(b, rep)
	for _, srv := range sampleServers(groups, checkedServers, g) {
		members := groups[srv]
		deployed := make([][2]float64, len(members))
		for i, s := range members {
			cpu, mem := rep.Shares(b.handles[s.id])
			deployed[i] = [2]float64{cpu, mem}
		}
		v, err := verdictFor(srv, members, deployed, b.opts.Delta)
		if err != nil {
			return fmt.Errorf("check (b) on server %d: %w", srv, err)
		}
		if err := judgeServer(v); err != nil {
			return err
		}
	}
	return nil
}

// tenantDecision is one tenant's place in a period's report.
type tenantDecision struct {
	id          string
	server      int
	cpu, mem    float64
	degradation float64
}

// decisions is the content of one period's report, tenants in the
// fleet's registration order and named by tenant ID, so reports of
// different fleets (and handles) compare.
type decisions struct {
	period               int
	totalCost            float64
	migrations, rebuilds int
	tenants              []tenantDecision
	// The rest of the report, which check (c) leaves out and a traced
	// run must also reproduce.
	candidateCost, stay, maxDeg float64
	arrivals, departures        int
	replaced                    bool
	qosViolations               int
	rebalanceMoves              int
	rebalanced                  []string
	dirtyCells                  []int
	replayedCells               int
	localSearchImprovement      float64
}

// decisionsOf reads a report's decisions for the live tenants.
func decisionsOf(b *bench, rep *vdesign.FleetPeriodReport) decisions {
	d := decisions{
		period: rep.Period(), totalCost: rep.TotalCost(), migrations: rep.Migrations(), rebuilds: rep.Rebuilds(),
		tenants:       make([]tenantDecision, 0, len(b.live)),
		candidateCost: rep.CandidateCost(), stay: rep.StayCost(), maxDeg: rep.MaxDegradation(),
		arrivals: rep.Arrivals(), departures: rep.Departures(), replaced: rep.Replaced(),
		qosViolations: rep.QoSViolations(), rebalanceMoves: rep.RebalanceMoves(), rebalanced: rep.Rebalanced(),
		dirtyCells: rep.DirtyCells(), replayedCells: rep.ReplayedCells(),
		localSearchImprovement: rep.LocalSearchImprovement(),
	}
	for _, s := range b.live {
		h := b.handles[s.id]
		cpu, mem := rep.Shares(h)
		d.tenants = append(d.tenants, tenantDecision{id: s.id, server: rep.ServerOf(h), cpu: cpu, mem: mem, degradation: rep.Degradation(h)})
	}
	return d
}

// sameDecisions is check (c): two periods' reports place every tenant on
// the same server with the same shares and degradation, and agree on
// TotalCost, migrations and rebuilds. Which cells recomputed may differ:
// a restored fleet recomputes every cell.
func sameDecisions(a, b decisions) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("period %d report differs from its reference: %s", a.period, fmt.Sprintf(format, args...))
	}
	if a.period != b.period {
		return fail("period number %d vs %d", a.period, b.period)
	}
	if a.totalCost != b.totalCost || a.migrations != b.migrations || a.rebuilds != b.rebuilds {
		return fail("TotalCost %v vs %v, migrations %d vs %d, rebuilds %d vs %d",
			a.totalCost, b.totalCost, a.migrations, b.migrations, a.rebuilds, b.rebuilds)
	}
	if len(a.tenants) != len(b.tenants) {
		return fail("%d vs %d tenants", len(a.tenants), len(b.tenants))
	}
	for i := range a.tenants {
		if a.tenants[i] != b.tenants[i] {
			return fail("tenant %+v vs %+v", a.tenants[i], b.tenants[i])
		}
	}
	return nil
}

// digest hashes every field of the decisions, the ones check (c) leaves
// out too. A traced pass compares its reports with the untraced pass's
// this way, period by period, without either pass keeping its reports.
func (d decisions) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	num := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	replaced := 0.0
	if d.replaced {
		replaced = 1
	}
	for _, x := range []float64{float64(d.period), d.totalCost, float64(d.migrations), float64(d.rebuilds),
		d.candidateCost, d.stay, d.maxDeg, float64(d.arrivals), float64(d.departures), replaced,
		float64(d.qosViolations), float64(d.rebalanceMoves), float64(d.replayedCells), d.localSearchImprovement,
		float64(len(d.tenants)), float64(len(d.rebalanced)), float64(len(d.dirtyCells))} {
		num(x)
	}
	for _, t := range d.tenants {
		str(t.id)
		num(float64(t.server))
		num(t.cpu)
		num(t.mem)
		num(t.degradation)
	}
	for _, id := range d.rebalanced {
		str(id)
	}
	for _, c := range d.dirtyCells {
		num(float64(c))
	}
	return h.Sum64()
}
