package vdesign

import (
	"errors"
	"fmt"

	"repro/internal/calibrate"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/placement"
	"repro/internal/score"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

// Cluster is a fleet of identical physical servers sharing one pool of
// database tenants: the multi-machine layer above the single-machine
// advisor. Tenants are registered against the cluster (not a particular
// server), and Place assigns every tenant to a server and splits each
// server's CPU and memory among its tenants — co-location and share
// decisions both driven by the calibrated what-if cost model.
//
// All servers run on the same machine profile, so the whole cluster
// shares one PostgreSQL and one DB2 calibration from the process-wide
// calibration cache: constructing a cluster after any server (or another
// cluster) on the same profile performs zero additional calibration runs.
type Cluster struct {
	machine *vmsim.Machine
	pgCal   *calibrate.PGResult
	db2Cal  *calibrate.DB2Result
	servers int
	tenants []*ClusterTenant
	// scores and estimates persist across Place calls: cluster workloads
	// are immutable after registration (fingerprints are tenant indexes)
	// and QoS settings key the score cache through Gains/Limits, so a
	// re-placement — after adding a server, a tenant, or changing QoS —
	// reuses every advisor run and point estimate that still applies.
	scores    *score.Cache
	estimates *score.EstimateCache
}

// ClusterTenant identifies one tenant registered with a cluster.
type ClusterTenant struct {
	index int
	name  string
	sys   dbms.System
	w     *workload.Workload
	est   *core.WhatIfEstimator
	qos   QoS
}

// Name returns the tenant's name.
func (t *ClusterTenant) Name() string { return t.name }

// NewCluster creates an empty cluster on the default simulated hardware.
// Add servers with AddServer, tenants with AddTenant, then call Place.
// The calibrations come from the process-wide calibration cache, so only
// the first cluster or server on a machine profile pays for them.
func NewCluster() (*Cluster, error) {
	m := vmsim.Default()
	pg, err := calibrate.PGFor(m, calibrate.Options{})
	if err != nil {
		return nil, fmt.Errorf("vdesign: calibrating PostgreSQL: %w", err)
	}
	db2, err := calibrate.DB2For(m, calibrate.Options{})
	if err != nil {
		return nil, fmt.Errorf("vdesign: calibrating DB2: %w", err)
	}
	return &Cluster{machine: m, pgCal: pg, db2Cal: db2}, nil
}

// AddServer grows the fleet by one physical server (identical hardware
// across the fleet; the servers share the cluster's calibrations, so
// this is free no matter how large the fleet grows). Tenants are not
// bound to a server by hand — Place assigns them.
func (c *Cluster) AddServer() { c.servers++ }

// Servers returns how many servers the cluster holds.
func (c *Cluster) Servers() int { return c.servers }

// AddTenant registers a tenant with the cluster: a VM running the given
// DBMS flavor over a schema with a workload of SQL statements, to be
// assigned to a server by Place.
func (c *Cluster) AddTenant(name string, f Flavor, schema *catalog.Schema, statements []string) (*ClusterTenant, error) {
	w := &workload.Workload{Name: name}
	for _, sql := range statements {
		w.Statements = append(w.Statements, workload.MustStatement(sql))
	}
	return c.AddTenantWorkload(name, f, schema, w)
}

// AddTenantWorkload registers a tenant with a fully specified workload.
func (c *Cluster) AddTenantWorkload(name string, f Flavor, schema *catalog.Schema, w *workload.Workload) (*ClusterTenant, error) {
	sys, est, err := newTenantEstimator(f, schema, w, c.machine, c.pgCal, c.db2Cal)
	if err != nil {
		return nil, err
	}
	t := &ClusterTenant{index: len(c.tenants), name: name, sys: sys, w: w, est: est}
	c.tenants = append(c.tenants, t)
	return t, nil
}

// SetQoS sets a tenant's degradation limit and gain factor; Place carries
// them into the per-machine advisor runs.
func (c *Cluster) SetQoS(t *ClusterTenant, q QoS) { c.tenants[t.index].qos = q }

// ClusterPlacement is a completed cluster-wide recommendation: the
// tenant→server assignment plus each server's resource split.
type ClusterPlacement struct {
	cluster *Cluster
	p       *placement.Placement
	scores  *score.Cache
}

// Place assigns every tenant to a server and each server's resources to
// its tenants. Results are deterministic and bit-identical across
// Options.Parallelism settings. Every per-machine advisor run goes
// through the cluster's machine-score cache and every what-if point
// through its estimate cache, both persistent across Place calls: within
// one call, configurations revisited by local search are never scored
// twice; across calls, a re-placement after adding a server or tenant
// reuses every run that still applies. ScoreStats on the result reports
// the cumulative traffic.
func (c *Cluster) Place(opts *Options) (*ClusterPlacement, error) {
	if c.servers == 0 {
		return nil, errors.New("vdesign: cluster has no servers")
	}
	if len(c.tenants) == 0 {
		return nil, errors.New("vdesign: cluster has no tenants")
	}
	if c.scores == nil {
		c.scores = score.NewCache()
		c.estimates = score.NewEstimates()
	}
	popts := placement.Options{
		Servers:   c.servers,
		Core:      core.Options{Resources: 2},
		Scores:    c.scores,
		Estimates: c.estimates,
	}
	if opts != nil {
		if opts.Delta > 0 {
			popts.Core.Delta = opts.Delta
		}
		popts.Core.Parallelism = opts.Parallelism
		popts.Core.Ctx = opts.Context
		popts.LocalSearch = opts.LocalSearch
	}
	tenants := make([]placement.Tenant, len(c.tenants))
	for i, t := range c.tenants {
		// The vdesign QoS convention (matching Server.Recommend): values
		// below 1, including the 0 zero-value, mean "default". Cluster
		// tenants' workloads are immutable after registration, so the
		// tenant index is a sound per-call fingerprint.
		pt := placement.Tenant{Name: t.name, Est: t.est, Fingerprint: fmt.Sprintf("t%d", i)}
		if t.qos.GainFactor >= 1 {
			pt.Gain = t.qos.GainFactor
		}
		if t.qos.DegradationLimit >= 1 {
			pt.Limit = t.qos.DegradationLimit
		}
		tenants[i] = pt
	}
	p, err := placement.Place(tenants, popts)
	if err != nil {
		return nil, fmt.Errorf("vdesign: placing %d tenants on %d servers: %w",
			len(c.tenants), c.servers, err)
	}
	return &ClusterPlacement{cluster: c, p: p, scores: popts.Scores}, nil
}

// ServerOf returns the index of the server a tenant was assigned to.
func (r *ClusterPlacement) ServerOf(t *ClusterTenant) int { return r.p.Assignment[t.index] }

// Shares returns (cpuShare, memShare) recommended for a tenant on its
// assigned server.
func (r *ClusterPlacement) Shares(t *ClusterTenant) (cpu, mem float64) {
	a := r.p.AllocationOf(t.index)
	return a[0], a[1]
}

// EstimatedSeconds returns the tenant's estimated workload cost at its
// placed allocation.
func (r *ClusterPlacement) EstimatedSeconds(t *ClusterTenant) float64 {
	sec, _ := r.p.CostOf(t.index)
	return sec
}

// Degradation returns the tenant's estimated degradation vs a dedicated
// machine.
func (r *ClusterPlacement) Degradation(t *ClusterTenant) float64 {
	_, deg := r.p.CostOf(t.index)
	return deg
}

// TotalCost is the gain-weighted objective summed over all servers.
func (r *ClusterPlacement) TotalCost() float64 { return r.p.TotalCost }

// GreedyCost is the objective before local search; it equals TotalCost
// when Options.LocalSearch is 0 or no improving change existed.
func (r *ClusterPlacement) GreedyCost() float64 { return r.p.GreedyCost }

// LocalSearchImprovement is how much local search lowered the objective
// below greedy packing.
func (r *ClusterPlacement) LocalSearchImprovement() float64 {
	return r.p.GreedyCost - r.p.TotalCost
}

// LocalSearchMoves counts the moves and swaps local search applied.
func (r *ClusterPlacement) LocalSearchMoves() int { return r.p.LocalSearchMoves }

// ScoreStats reports the cluster's machine-score cache counters: runs
// served from the cache (hits), cacheable configurations scored fresh
// (misses), and total fresh advisor executions (runs) — cumulative over
// every Place call on the cluster.
func (r *ClusterPlacement) ScoreStats() (hits, misses, runs int64) {
	return r.scores.Stats()
}

// TenantsOn returns the tenants assigned to one server, in placement
// order.
func (r *ClusterPlacement) TenantsOn(server int) []*ClusterTenant {
	var out []*ClusterTenant
	for _, ti := range r.p.Machines[server].Tenants {
		out = append(out, r.cluster.tenants[ti])
	}
	return out
}
