// Package vdesign is the public API of this repository: a virtualization
// design advisor for database workloads, reproducing Soror et al.,
// "Automatic Virtual Machine Configuration for Database Workloads"
// (SIGMOD 2008 / TODS).
//
// A Server models one physical machine whose CPU and memory are shared by
// N virtual machines, each running a simulated DBMS (PostgreSQL- or
// DB2-flavoured) with a SQL workload. The advisor recommends per-VM
// resource shares using the DBMS query optimizers in what-if mode, can
// refine the recommendation online against observed run times, and can
// manage allocations across monitoring periods as workloads change.
//
// Quick start:
//
//	srv, _ := vdesign.NewServer()
//	t1, _ := srv.AddTenant("dss", vdesign.PostgreSQL, tpchSchema, dssSQL)
//	t2, _ := srv.AddTenant("oltp", vdesign.DB2, tpccSchema, oltpSQL)
//	rec, _ := srv.Recommend(nil)
//	fmt.Println(rec.Shares(t1), rec.Shares(t2))
package vdesign

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/calibrate"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/db2sim"
	"repro/internal/dbms"
	"repro/internal/pgsim"
	"repro/internal/refine"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

// Flavor selects which simulated DBMS a tenant runs.
type Flavor int

// Supported database system flavors.
const (
	// PostgreSQL is the PostgreSQL-flavoured system: costs in
	// sequential-page units, Table II parameters, shared_buffers = 10/16
	// of VM memory.
	PostgreSQL Flavor = iota
	// DB2 is the DB2-flavoured system: costs in timerons, Table III
	// parameters, bufferpool = 70% of free VM memory.
	DB2
)

// QoS carries the per-tenant quality-of-service settings of §3: the
// degradation limit L (≥ 1, 0 meaning unlimited) and the benefit gain
// factor G (≥ 1, 0 meaning 1).
type QoS struct {
	DegradationLimit float64
	GainFactor       float64
}

// Server is a consolidated physical machine with tenant VMs.
type Server struct {
	machine *vmsim.Machine
	pgCal   *calibrate.PGResult
	db2Cal  *calibrate.DB2Result
	tenants []*TenantHandle
}

// TenantHandle identifies one tenant (one VM running one DBMS+workload).
type TenantHandle struct {
	index int
	name  string
	sys   dbms.System
	w     *workload.Workload
	est   *core.WhatIfEstimator
	qos   QoS
}

// Name returns the tenant's name.
func (t *TenantHandle) Name() string { return t.name }

// NewServer creates a server with the default simulated hardware. The
// one-time optimizer calibrations (§4.3) for both DBMS flavors come from
// the process-wide calibration cache keyed by the machine profile, so
// only the first server constructed on a given profile pays for them —
// every later Server (or Cluster) construction is cheap.
func NewServer() (*Server, error) {
	return NewServerOn(vmsim.Default())
}

// NewServerOn creates a server on an explicitly configured simulated
// machine, sharing calibrations with every other server on the same
// machine profile.
func NewServerOn(m *vmsim.Machine) (*Server, error) {
	pg, err := calibrate.PGFor(m, calibrate.Options{})
	if err != nil {
		return nil, fmt.Errorf("vdesign: calibrating PostgreSQL: %w", err)
	}
	db2, err := calibrate.DB2For(m, calibrate.Options{})
	if err != nil {
		return nil, fmt.Errorf("vdesign: calibrating DB2: %w", err)
	}
	return &Server{machine: m, pgCal: pg, db2Cal: db2}, nil
}

// Machine exposes the underlying simulated machine.
func (s *Server) Machine() *vmsim.Machine { return s.machine }

// AddTenant registers a VM running the given DBMS flavor over a schema
// with a workload of SQL statements (each executed once per monitoring
// interval; use AddTenantWorkload for explicit frequencies).
func (s *Server) AddTenant(name string, f Flavor, schema *catalog.Schema, statements []string) (*TenantHandle, error) {
	w := &workload.Workload{Name: name}
	for _, sql := range statements {
		st := workload.MustStatement(sql)
		w.Statements = append(w.Statements, st)
	}
	return s.AddTenantWorkload(name, f, schema, w)
}

// AddTenantWorkload registers a VM with a fully specified workload.
func (s *Server) AddTenantWorkload(name string, f Flavor, schema *catalog.Schema, w *workload.Workload) (*TenantHandle, error) {
	sys, est, err := newTenantEstimator(f, schema, w, s.machine, s.pgCal, s.db2Cal)
	if err != nil {
		return nil, err
	}
	t := &TenantHandle{index: len(s.tenants), name: name, sys: sys, w: w, est: est}
	s.tenants = append(s.tenants, t)
	return t, nil
}

// newSystem builds the simulated DBMS for a flavor over a schema.
func newSystem(f Flavor, schema *catalog.Schema) (dbms.System, error) {
	switch f {
	case PostgreSQL:
		return pgsim.New(schema), nil
	case DB2:
		return db2sim.New(schema), nil
	default:
		return nil, fmt.Errorf("vdesign: unknown flavor %d", f)
	}
}

// whatIfEstimator wires the calibrated what-if estimator for an existing
// simulated system under one machine profile's calibrations and memory —
// the single place the flavor→(Params, Renorm) mapping lives; Server,
// Cluster, and the Fleet's per-profile estimators all come through here.
func whatIfEstimator(f Flavor, sys dbms.System, w *workload.Workload,
	pgCal *calibrate.PGResult, db2Cal *calibrate.DB2Result, machineMemBytes float64) *core.WhatIfEstimator {
	est := &core.WhatIfEstimator{Sys: sys, Workload: w, MachineMemBytes: machineMemBytes}
	switch f {
	case PostgreSQL:
		est.Params = func(a dbms.Alloc) any { return pgCal.Params(a) }
		est.Renorm = pgCal.Renorm()
	case DB2:
		est.Params = func(a dbms.Alloc) any { return db2Cal.Params(a) }
		est.Renorm = db2Cal.Renorm()
	}
	return est
}

// newTenantEstimator builds the simulated DBMS and the calibrated what-if
// estimator for one tenant; shared by Server and Cluster.
func newTenantEstimator(f Flavor, schema *catalog.Schema, w *workload.Workload, m *vmsim.Machine,
	pgCal *calibrate.PGResult, db2Cal *calibrate.DB2Result) (dbms.System, *core.WhatIfEstimator, error) {
	if schema == nil || w == nil || len(w.Statements) == 0 {
		return nil, nil, errors.New("vdesign: tenant needs a schema and a non-empty workload")
	}
	sys, err := newSystem(f, schema)
	if err != nil {
		return nil, nil, err
	}
	return sys, whatIfEstimator(f, sys, w, pgCal, db2Cal, m.HW.MemoryBytes), nil
}

// SetQoS sets a tenant's degradation limit and gain factor.
func (s *Server) SetQoS(t *TenantHandle, q QoS) { s.tenants[t.index].qos = q }

// Recommendation is a completed advisor run.
type Recommendation struct {
	server *Server
	res    *core.Result
	// opts are the enumerator options the recommendation was produced
	// with; Refined reuses them (minus the context, which may have ended)
	// so online refinement re-runs the advisor with the same parallelism
	// and QoS shape.
	opts core.Options
}

// Shares returns (cpuShare, memShare) recommended for a tenant.
func (r *Recommendation) Shares(t *TenantHandle) (cpu, mem float64) {
	a := r.res.Allocations[t.index]
	return a[0], a[1]
}

// EstimatedSeconds returns the estimated workload cost at the
// recommendation.
func (r *Recommendation) EstimatedSeconds(t *TenantHandle) float64 {
	return r.res.Costs[t.index]
}

// Degradation returns the estimated degradation vs a dedicated machine.
func (r *Recommendation) Degradation(t *TenantHandle) float64 {
	return r.res.Degradations()[t.index]
}

// Options tunes the advisor run.
type Options struct {
	// Delta is the greedy step (default 5%).
	Delta float64
	// Parallelism bounds how many what-if estimations run concurrently
	// (default 1). Recommendations are bit-identical across settings; use
	// runtime.GOMAXPROCS(0) to exploit all cores.
	Parallelism int
	// Context cancels a long-running recommendation; nil means no
	// cancellation.
	Context context.Context
	// LocalSearch bounds the post-greedy local-search refinement of
	// multi-machine placements (Cluster.Place): each round applies the
	// single-tenant move or pairwise swap that lowers the fleet objective
	// most, stopping when no strict improvement remains. 0 disables the
	// phase; it has no effect on single-machine Recommend runs.
	LocalSearch int
}

// Recommend runs the virtualization design advisor (§4) over all tenants,
// allocating CPU and memory shares.
func (s *Server) Recommend(opts *Options) (*Recommendation, error) {
	if len(s.tenants) == 0 {
		return nil, errors.New("vdesign: no tenants")
	}
	coreOpts := core.Options{Resources: 2}
	if opts != nil {
		if opts.Delta > 0 {
			coreOpts.Delta = opts.Delta
		}
		coreOpts.Parallelism = opts.Parallelism
		coreOpts.Ctx = opts.Context
	}
	coreOpts.Gains = make([]float64, len(s.tenants))
	coreOpts.Limits = make([]float64, len(s.tenants))
	for i, t := range s.tenants {
		coreOpts.Gains[i] = 1
		if t.qos.GainFactor >= 1 {
			coreOpts.Gains[i] = t.qos.GainFactor
		}
		if t.qos.DegradationLimit >= 1 {
			coreOpts.Limits[i] = t.qos.DegradationLimit
		} else {
			coreOpts.Limits[i] = inf()
		}
	}
	ests := make([]core.Estimator, len(s.tenants))
	for i, t := range s.tenants {
		ests[i] = t.est
	}
	res, err := core.Recommend(ests, coreOpts)
	if err != nil {
		return nil, err
	}
	return &Recommendation{server: s, res: res, opts: coreOpts}, nil
}

// MeasureSeconds runs a tenant's workload in its VM under explicit shares
// and returns simulated seconds — the Act_i measurement of §5.
func (s *Server) MeasureSeconds(t *TenantHandle, cpuShare, memShare float64) (float64, error) {
	a := dbms.Alloc{CPU: cpuShare, Mem: memShare}.Clamp(0.01)
	return s.machine.RunWorkload(t.sys, t.w, a)
}

// Refined runs online refinement (§5) from a recommendation: measure
// actual run times at the deployed allocation, correct the cost models by
// Act/Est, re-run the advisor, and repeat until stable.
func (s *Server) Refined(rec *Recommendation) (*Recommendation, error) {
	refineOpts := rec.opts
	refineOpts.Resources = 2
	// Drop the recommendation's context: it may be long dead by the time
	// refinement runs (e.g. a request-scoped Recommend), and refinement is
	// a new operation. Parallelism and the QoS-shaped options carry over.
	refineOpts.Ctx = nil
	out, err := refine.Run(rec.res, refine.Config{
		Opts:     refineOpts,
		MaxIters: 8,
		Measure: func(i int, a core.Allocation) (float64, error) {
			t := s.tenants[i]
			return s.MeasureSeconds(t, a[0], a[1])
		},
	})
	if err != nil {
		return nil, err
	}
	// Package the refined allocations in a Recommendation-compatible shape.
	res := &core.Result{
		Allocations:    out.Allocations,
		Costs:          make([]float64, len(s.tenants)),
		DedicatedCosts: rec.res.DedicatedCosts,
		Samples:        rec.res.Samples,
	}
	for i, md := range out.Models {
		c, _, err := md.Estimate(out.Allocations[i])
		if err != nil {
			return nil, err
		}
		res.Costs[i] = c
		res.TotalCost += c
	}
	return &Recommendation{server: s, res: res, opts: rec.opts}, nil
}

func inf() float64 { return 1e308 }
