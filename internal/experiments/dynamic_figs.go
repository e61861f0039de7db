package experiments

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dynmgmt"
	"repro/internal/tpcc"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func init() {
	register("fig35", func(e *Env) (*Result, error) { return dynamicRun(e, "fig35", true) })
	register("fig36", func(e *Env) (*Result, error) { return dynamicRun(e, "fig36", false) })
}

// dynamicScenario drives the §7.10 setup: W24 (TPC-H) and W25 (TPC-C) on
// DB2 across 9 monitoring periods. Every period the TPC-H workload grows
// by one unit (a minor change); in periods 3 and 7 the two workloads swap
// virtual machines (a major change).
type dynamicScenario struct {
	env      *Env
	tpchHome *catalog.Schema
	tpccHome *catalog.Schema
	units    float64
	baseUnit *workload.Workload
	oltp     *workload.Workload
	swapped  bool
}

func newDynamicScenario(env *Env) (*dynamicScenario, error) {
	c, _, err := env.unitsCI("db2")
	if err != nil {
		return nil, err
	}
	sc := &dynamicScenario{
		env:      env,
		tpchHome: env.schema("tpch1", func() *catalog.Schema { return tpch.Schema(1) }),
		tpccHome: env.schema("tpcc10", func() *catalog.Schema { return tpcc.Schema(10) }),
		units:    5,
		baseUnit: c,
		oltp:     tpcc.Mix(5, 8, 35),
	}
	// Normalize the OLTP mix to the initial DSS duration (§3's equal
	// monitoring interval).
	dssT := sc.tenant(0)
	ref := core.Allocation{0.5}
	dssSec, err := env.Actual(dssT, ref)
	if err != nil {
		return nil, err
	}
	oltpT := env.DB2Tenant("w25", sc.tpccHome, sc.oltp)
	oltpSec, err := env.Actual(oltpT, ref)
	if err != nil {
		return nil, err
	}
	if oltpSec > 0 {
		sc.oltp = sc.oltp.Scale(dssSec / oltpSec)
	}
	return sc, nil
}

// workloads returns the current (vm0, vm1) workloads honouring swaps.
func (sc *dynamicScenario) workloads() (*workload.Workload, *workload.Workload) {
	dss := sc.baseUnit.Scale(sc.units)
	dss.Name = "W24"
	if sc.swapped {
		return sc.oltp, dss
	}
	return dss, sc.oltp
}

func (sc *dynamicScenario) schemaFor(w *workload.Workload) *catalog.Schema {
	if w.Name == "W24" {
		return sc.tpchHome
	}
	return sc.tpccHome
}

// tenant builds the tenant currently living in VM i.
func (sc *dynamicScenario) tenant(i int) *Tenant {
	w0, w1 := sc.workloads()
	w := w0
	if i == 1 {
		w = w1
	}
	t := sc.env.DB2Tenant(w.Name, sc.schemaFor(w), w)
	return t
}

// input builds the dynmgmt PeriodInput for VM i. Its ID names the VM
// slot, not the workload, so the manager's state belongs to the slot:
// when the workloads trade VMs, each slot's per-query estimate jumps,
// and §6.1 classifies the swap as a major change on both.
func (sc *dynamicScenario) input(i int) (dynmgmt.PeriodInput, error) {
	t := sc.tenant(i)
	avg, err := t.Est.AvgEstimatePerQuery(core.Allocation{0.5})
	if err != nil {
		return dynmgmt.PeriodInput{}, err
	}
	return dynmgmt.PeriodInput{
		ID:             fmt.Sprintf("vm%d", i),
		Estimator:      t.Est,
		AvgEstPerQuery: avg,
		Measure: func(a core.Allocation) (float64, error) {
			return sc.env.Actual(t, a)
		},
	}, nil
}

// dynamicRun drives 9 periods under dynamic management, continuous-
// refinement-only, and a measured-optimal baseline. With shares=true it
// reports VM-0's CPU share per period (Fig. 35); otherwise the actual
// improvement over the default split per period (Fig. 36).
func dynamicRun(env *Env, id string, shares bool) (*Result, error) {
	mkMgr := func(force bool) *dynmgmt.Manager {
		m := dynmgmt.NewManager(core.Options{Resources: 1, Delta: 0.05, Parallelism: searchParallelism})
		m.ForceContinuous = force
		return m
	}
	managers := []*dynmgmt.Manager{mkMgr(false), mkMgr(true)}
	scenarios := make([]*dynamicScenario, 2)
	for i := range scenarios {
		sc, err := newDynamicScenario(env)
		if err != nil {
			return nil, err
		}
		scenarios[i] = sc
	}
	optScenario, err := newDynamicScenario(env)
	if err != nil {
		return nil, err
	}

	res := &Result{ID: id, XLabel: "period"}
	if shares {
		res.Title = "CPU share of VM0 per period: dynamic mgmt vs continuous refinement (DB2)"
		res.YLabel = "cpu share of VM0"
	} else {
		res.Title = "Improvement per period: dynamic mgmt vs continuous refinement vs optimal (DB2)"
		res.YLabel = "improvement over 50/50"
	}
	series := make([][]float64, 3) // dynamic, continuous, optimal
	for period := 1; period <= 9; period++ {
		res.X = append(res.X, float64(period))
		for mi, mgr := range managers {
			sc := scenarios[mi]
			// Workload evolution happens before the period's monitoring
			// data is collected.
			sc.evolve(period)
			in0, err := sc.input(0)
			if err != nil {
				return nil, err
			}
			in1, err := sc.input(1)
			if err != nil {
				return nil, err
			}
			rep, err := mgr.Period([]dynmgmt.PeriodInput{in0, in1})
			if err != nil {
				return nil, err
			}
			if shares {
				series[mi] = append(series[mi], rep.Allocations[0][0])
			} else {
				imp, err := sc.improvementAt(rep.Allocations)
				if err != nil {
					return nil, err
				}
				series[mi] = append(series[mi], imp)
			}
		}
		// Optimal baseline: greedy over actual measurements each period.
		optScenario.evolve(period)
		t0, t1 := optScenario.tenant(0), optScenario.tenant(1)
		best, err := core.Recommend([]core.Estimator{
			env.ActualEstimator(t0), env.ActualEstimator(t1),
		}, core.Options{Resources: 1, Delta: 0.05, Parallelism: searchParallelism})
		if err != nil {
			return nil, err
		}
		if shares {
			series[2] = append(series[2], best.Allocations[0][0])
		} else {
			imp, err := optScenario.improvementAt(best.Allocations)
			if err != nil {
				return nil, err
			}
			series[2] = append(series[2], imp)
		}
	}
	res.AddSeries("dynamic-mgmt", series[0])
	res.AddSeries("continuous-refine", series[1])
	res.AddSeries("optimal", series[2])
	res.Note("workload swaps at periods 3 and 7; dynamic management re-tracks the optimal after each swap")
	return res, nil
}

// evolve applies the period's workload change: +1 TPC-H unit per period,
// swap at periods 3 and 7.
func (sc *dynamicScenario) evolve(period int) {
	if period == 1 {
		return // initial state
	}
	sc.units++
	if period == 3 || period == 7 {
		sc.swapped = !sc.swapped
	}
}

// improvementAt measures actual improvement of the allocations over the
// default 50/50 split for the scenario's current workloads.
func (sc *dynamicScenario) improvementAt(allocs []core.Allocation) (float64, error) {
	t0, t1 := sc.tenant(0), sc.tenant(1)
	def := core.Allocation{0.5}
	d0, err := sc.env.Actual(t0, def)
	if err != nil {
		return 0, err
	}
	d1, err := sc.env.Actual(t1, def)
	if err != nil {
		return 0, err
	}
	a0, err := sc.env.Actual(t0, allocs[0])
	if err != nil {
		return 0, err
	}
	a1, err := sc.env.Actual(t1, allocs[1])
	if err != nil {
		return 0, err
	}
	return improvement(d0+d1, a0+a1), nil
}
