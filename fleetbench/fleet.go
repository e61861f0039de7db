package main

// The fleet under test: building it through the public vdesign API and
// driving one scripted operation at a time.

import (
	"bytes"
	"fmt"
	"time"

	vdesign "repro"
)

// Workload names.
const (
	wSteady  = "steady"
	wDrift   = "drift"
	wRestart = "restart"
)

// shape sizes a workload and fixes its script.
type shape struct {
	name    string
	servers int
	tenants int
	// warmup is the number of untimed, unchanged periods after the
	// first, so refinement settles before timing starts.
	warmup int
	// major and minor are the workload changes applied before each
	// timed operation; churn adds one departure and one arrival.
	major, minor int
	churn        bool
	// restart makes each timed operation a snapshot, re-creation,
	// restore and first resumed period.
	restart bool
	// minOps is the least number of timed operations a run makes.
	minOps int
	// setups is how many set-ups a run times for setup_s's median.
	setups int
	// fleets is how many independent fleets of this size a run drives,
	// one after another.
	fleets int
}

// shapes are the benchmark's three workloads at full size.
var shapes = map[string]shape{
	wSteady:  {name: wSteady, servers: 200, tenants: 1000, warmup: 10, minOps: 100, setups: 3, fleets: 4},
	wDrift:   {name: wDrift, servers: 100, tenants: 400, warmup: 4, major: 2, minor: 1, churn: true, minOps: 150, setups: 3, fleets: 3},
	wRestart: {name: wRestart, servers: 16, tenants: 64, warmup: 4, major: 1, minor: 1, restart: true, minOps: 100, setups: 9, fleets: 4},
}

// fleetOptions are the options every workload shares, plus those of a
// long-lived fleet for drift and restart. AutoTuneCells stays off: it
// re-partitions from measured latency, so the work done would differ
// from run to run.
func fleetOptions(sh shape) vdesign.FleetOptions {
	o := vdesign.FleetOptions{MigrationCost: 5, Delta: 0.1, Parallelism: 2, Cells: 8}
	if sh.name != wSteady {
		o.LocalSearch = 1
		o.Incremental = true
		o.RebalanceBudget = 2
		o.ScoreCacheSweep = 8
	}
	return o
}

// bench is one fleet under test and the benchmark's own record of its
// live tenants, in registration order.
type bench struct {
	sh      shape
	opts    vdesign.FleetOptions
	f       *vdesign.Fleet
	live    []*spec
	handles map[string]*vdesign.FleetTenant
	// departed holds the handles removed by the last script step, so
	// check (a) can see that they left the report.
	departed []*vdesign.FleetTenant
	tr       *tracer
}

// newBench creates an empty fleet with the workload's options. A tracer
// (nil when untraced) records the benchmark's spans around its calls;
// with observe set it also turns on the program's metrics registry and
// span sink for this fleet.
func newBench(sh shape, tr *tracer, observe bool) *bench {
	b := &bench{sh: sh, opts: fleetOptions(sh), handles: map[string]*vdesign.FleetTenant{}, tr: tr}
	if tr != nil && observe {
		b.opts.Metrics = tr.reg
		b.opts.TraceSink = tr.sink
	}
	b.f = vdesign.NewFleet(&b.opts)
	return b
}

// addServers adds the workload's servers, profiles alternating. It
// returns the time each profile's first server took, which is when that
// profile is calibrated in a fresh process.
func (b *bench) addServers() ([]time.Duration, error) {
	first := make([]time.Duration, len(profiles))
	for s := 0; s < b.sh.servers; s++ {
		sp := b.tr.start("Fleet.AddServer")
		t0 := time.Now()
		if _, err := b.f.AddServer(profileOf(s)); err != nil {
			return nil, err
		}
		if s < len(profiles) {
			first[s] = time.Since(t0)
		}
		sp.End()
	}
	return first, nil
}

// register adds one tenant to the fleet with its QoS.
func (b *bench) register(s *spec) error {
	sp := b.tr.start("Fleet.AddTenantWorkload")
	h, err := b.f.AddTenantWorkload(s.id, s.flavor, s.schema, s.w)
	sp.End()
	if err != nil {
		return err
	}
	if s.qos != (vdesign.QoS{}) {
		sp := b.tr.start("Fleet.SetQoS")
		b.f.SetQoS(h, s.qos)
		sp.End()
	}
	b.handles[s.id] = h
	b.live = append(b.live, s)
	return nil
}

// build registers servers and tenants: everything before the first
// period.
func (b *bench) build(specs []*spec) ([]time.Duration, error) {
	first, err := b.addServers()
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		if err := b.register(s); err != nil {
			return nil, err
		}
	}
	return first, nil
}

// period runs one Fleet.Period and times it as the caller sees it.
func (b *bench) period() (*vdesign.FleetPeriodReport, time.Duration, error) {
	sp := b.tr.start("Fleet.Period")
	t0 := time.Now()
	rep, err := b.f.Period()
	d := time.Since(t0)
	sp.End()
	b.tr.period(d)
	return rep, d, err
}

// step is what one script step did, for check (a).
type step struct {
	arrivals, departures int
}

// script applies one timed operation's input changes: the workload's
// major and minor changes on seeded tenants, then (with churn) one
// seeded departure and one arrival of the same kind.
func (b *bench) script(g *gen) (step, error) {
	var st step
	b.departed = b.departed[:0]
	for i := 0; i < b.sh.major+b.sh.minor; i++ {
		s := b.live[g.pick(len(b.live))]
		if i >= b.sh.major {
			// A minor change needs a second statement to shift the
			// per-query average against; a single-query tenant would
			// only change intensity.
			for tries := 0; len(s.base.Statements) < 2 && tries < 64; tries++ {
				s = b.live[g.pick(len(b.live))]
			}
			g.minorChange(s)
		} else {
			// A major change redraws a TPC-H tenant's queries. A TPC-C
			// redraw would only change the client count, which scales
			// every frequency alike and leaves the §6.1 per-query
			// average where it was.
			for tries := 0; s.kind != kindTPCH && tries < 64; tries++ {
				s = b.live[g.pick(len(b.live))]
			}
			g.majorChange(s)
		}
		sp := b.tr.start("Fleet.SetWorkload")
		err := b.f.SetWorkload(b.handles[s.id], s.w)
		sp.End()
		if err != nil {
			return st, err
		}
	}
	if b.sh.churn {
		k := g.pick(len(b.live))
		gone := b.live[k]
		h := b.handles[gone.id]
		sp := b.tr.start("Fleet.RemoveTenant")
		b.f.RemoveTenant(h)
		sp.End()
		b.departed = append(b.departed, h)
		delete(b.handles, gone.id)
		b.live = append(b.live[:k:k], b.live[k+1:]...)
		st.departures++
		if err := b.register(g.arrival(gone)); err != nil {
			return st, err
		}
		st.arrivals++
	}
	return st, nil
}

// snapshot writes the fleet's snapshot to memory.
func (b *bench) snapshot() ([]byte, error) {
	var buf bytes.Buffer
	sp := b.tr.start("Fleet.Snapshot")
	err := b.f.Snapshot(&buf)
	sp.End()
	return buf.Bytes(), err
}

// recreate builds a fresh fleet with the same options, servers and live
// tenants (current workloads, registration order) and restores snap
// into it: the restore contract. It also returns how long RestoreFleet
// took.
func (b *bench) recreate(snap []byte, tr *tracer) (*bench, time.Duration, error) {
	r := newBench(b.sh, tr, true)
	if _, err := r.addServers(); err != nil {
		return nil, 0, err
	}
	for _, s := range b.live {
		if err := r.register(s); err != nil {
			return nil, 0, err
		}
	}
	sp := r.tr.start("RestoreFleet")
	t0 := time.Now()
	err := vdesign.RestoreFleet(bytes.NewReader(snap), r.f, nil)
	d := time.Since(t0)
	sp.End()
	if err != nil {
		return nil, 0, fmt.Errorf("restore: %w", err)
	}
	return r, d, nil
}
