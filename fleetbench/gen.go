package main

// Input generation. Every input the benchmark feeds the program comes
// from one seeded generator, so the same seed gives the same tenants,
// the same QoS classes and the same change script on every run. The
// fleet-wide make-up is balanced rather than drawn independently:
// TPC-H queries and TPC-C client counts are dealt from shuffled decks,
// and flavors and QoS classes follow a fixed pattern over a seeded
// order, so fleet-wide means (the cost metrics) move little from seed to
// seed while every individual tenant still differs.

import (
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/tpcc"
	"repro/internal/tpch"
	"repro/internal/vmsim"
	"repro/internal/workload"

	vdesign "repro"
)

// profiles are the two hardware generations every workload mixes: the
// paper's 2.2 GHz / 8 GB server and a 1.1 GHz / 4 GB one. Server i has
// profiles[i%2].
var profiles = []vdesign.MachineProfile{
	{},
	{CPUHz: 1.1e9, MemoryBytes: 4 << 30},
}

// profileOf returns server s's hardware generation.
func profileOf(s int) vdesign.MachineProfile { return profiles[s%len(profiles)] }

// machineOf builds the benchmark's own simulated machine for a profile,
// with the same defaults the public MachineProfile documents (zero
// fields take the paper server's values, I/O contention 2.0).
func machineOf(p vdesign.MachineProfile) *vmsim.Machine {
	hw := vmsim.DefaultHardware()
	if p.CPUHz > 0 {
		hw.CPUHz = p.CPUHz
	}
	if p.MemoryBytes > 0 {
		hw.MemoryBytes = p.MemoryBytes
	}
	io := p.IOContention
	if io <= 0 {
		io = 2.0
	}
	return vmsim.New(hw, io)
}

// Tenant kinds.
const (
	kindTPCH = "tpch"
	kindTPCC = "tpcc"
)

// tpccWarehouses is the TPC-C scale every OLTP tenant runs at.
const tpccWarehouses = 5

// tpccIntensity scales tpcc.Mix's nominal 40 transactions per client
// per monitoring interval down to 0.4, so an OLTP tenant's estimated
// cost (about 50 s per client on the paper server at a quarter share)
// is on the scale of a TPC-H tenant's (one to three SF1 queries, 1 to
// 130 s each) instead of a hundred times larger. Without it the OLTP
// tenants would make up nearly all of every cost metric and of the
// advisor's objective.
const tpccIntensity = 0.01

// spec is one tenant as the benchmark knows it: identity, flavor, QoS
// and its current workload. The workload is replaced (never mutated) on
// a change, so a workload handed to the program stays as it was.
type spec struct {
	id     string
	flavor vdesign.Flavor
	kind   string
	schema *catalog.Schema
	qos    vdesign.QoS
	// base is the workload as last drawn; w is what the tenant runs now
	// (base, or base with one statement's frequency raised by a minor
	// change, recorded in bumped, -1 when none).
	base   *workload.Workload
	w      *workload.Workload
	bumped int
	desc   string
}

// gen is the seeded input generator.
type gen struct {
	rng        *rand.Rand
	next       int
	tpchSchema *catalog.Schema
	tpccSchema *catalog.Schema
	queries    [tpch.QueryCount + 1]workload.Statement
	qdeck      []int
	kdeck      []int
	cdeck      []int
}

// newGen seeds a generator. Workloads of different names get different
// streams from the same seed.
func newGen(seed int64, salt string) *gen {
	h := int64(0)
	for _, c := range salt {
		h = h*131 + int64(c)
	}
	g := &gen{
		rng:        rand.New(rand.NewSource(seed*1_000_003 + h)),
		tpchSchema: tpch.Schema(1),
		tpccSchema: tpcc.Schema(tpccWarehouses),
	}
	for q := 1; q <= tpch.QueryCount; q++ {
		g.queries[q] = tpch.Statement(q)
	}
	return g
}

// query deals the next TPC-H query number from a shuffled deck holding
// each of the 22 queries once; an empty deck is reshuffled.
func (g *gen) query() int {
	if len(g.qdeck) == 0 {
		g.qdeck = g.rng.Perm(tpch.QueryCount)
	}
	q := g.qdeck[0] + 1
	g.qdeck = g.qdeck[1:]
	return q
}

// size deals a TPC-H tenant's query count (1..3) the same way.
func (g *gen) size() int {
	if len(g.kdeck) == 0 {
		g.kdeck = g.rng.Perm(3)
	}
	k := g.kdeck[0] + 1
	g.kdeck = g.kdeck[1:]
	return k
}

// clients deals a TPC-C client count per warehouse (1..8) the same way.
func (g *gen) clients() int {
	if len(g.cdeck) == 0 {
		g.cdeck = g.rng.Perm(8)
	}
	c := g.cdeck[0] + 1
	g.cdeck = g.cdeck[1:]
	return c
}

// draw gives a spec of the given kind a fresh workload: one to three
// TPC-H SF1 queries, or a 5-warehouse TPC-C transaction mix.
func (g *gen) draw(s *spec) {
	switch s.kind {
	case kindTPCH:
		k := g.size()
		w := &workload.Workload{Name: s.id}
		desc := "tpch:"
		for i := 0; i < k; i++ {
			q := g.query()
			w.Statements = append(w.Statements, g.queries[q])
			if i > 0 {
				desc += "+"
			}
			desc += fmt.Sprintf("q%d", q)
		}
		s.base, s.desc = w, desc
	case kindTPCC:
		c := g.clients()
		w := tpcc.Mix(tpccWarehouses, c, g.rng.Int63()).Scale(tpccIntensity)
		w.Name = s.id
		s.base, s.desc = w, fmt.Sprintf("tpcc:w%d-c%d", tpccWarehouses, c)
	}
	s.w, s.bumped = s.base, -1
}

// newSpec makes a tenant of a given kind, flavor and QoS class with a
// freshly drawn workload.
func (g *gen) newSpec(kind string, flavor vdesign.Flavor, qos vdesign.QoS) *spec {
	s := &spec{id: fmt.Sprintf("t%05d", g.next), kind: kind, flavor: flavor, qos: qos}
	g.next++
	s.schema = g.tpchSchema
	if kind == kindTPCC {
		s.schema = g.tpccSchema
	}
	g.draw(s)
	return s
}

// population draws the initial tenants. Of every 20 slots, 5 run TPC-C
// and 15 TPC-H, half of each kind on each flavor, and 2 have gain 2 and
// 2 degradation limit 3 (one TPC-C and one TPC-H tenant each) — so about
// a tenth of the fleet carries each QoS setting, in every seed. The
// slots are registered in a seeded order.
func (g *gen) population(n int) []*spec {
	order := g.rng.Perm(n)
	out := make([]*spec, n)
	for _, slot := range order {
		kind := kindTPCH
		if slot%4 == 3 {
			kind = kindTPCC
		}
		flavor := vdesign.PostgreSQL
		if slot/4%2 == 1 {
			flavor = vdesign.DB2
		}
		var qos vdesign.QoS
		switch slot % 10 {
		case 1:
			qos.GainFactor = 2
		case 3:
			qos.DegradationLimit = 3
		}
		out[slot] = g.newSpec(kind, flavor, qos)
	}
	// Registration order follows the seeded permutation, not the slot
	// pattern, so neighbouring registrations differ from seed to seed.
	reg := make([]*spec, n)
	for i, slot := range order {
		reg[i] = out[slot]
	}
	return reg
}

// majorChange replaces a tenant's workload with a fresh draw of the same
// kind: a new query set or a new TPC-C mix (a §6.1 major change when the
// per-query estimate moves by more than τ).
func (g *gen) majorChange(s *spec) { g.draw(s) }

// minorChange toggles a 10% frequency bump on one statement. Raising one
// statement's frequency by 10% (or lowering it back) moves the average
// estimate per query by strictly less than 10%, whatever the statement
// costs, so the §6.1 metric sees a minor change.
func (g *gen) minorChange(s *spec) {
	if s.bumped >= 0 {
		s.w, s.bumped = s.base, -1
		return
	}
	j := g.rng.Intn(len(s.base.Statements))
	w := s.base.Clone()
	w.Statements[j].Freq *= 1.1
	s.w, s.bumped = w, j
}

// arrival replaces a departed tenant with a newcomer of the same kind,
// flavor and QoS class, so the fleet's make-up stays fixed under churn.
func (g *gen) arrival(departed *spec) *spec {
	return g.newSpec(departed.kind, departed.flavor, departed.qos)
}

// pick returns a seeded index in [0, n).
func (g *gen) pick(n int) int { return g.rng.Intn(n) }
