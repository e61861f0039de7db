// Dynamic demonstrates dynamic configuration management (§6): two tenants
// are monitored over periods; mid-run their workloads swap VMs (a major
// change), and the manager detects it through the per-query cost-estimate
// metric and rebuilds its models instead of dragging stale refinements.
package main

import (
	"fmt"
	"log"

	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/db2sim"
	"repro/internal/dbms"
	"repro/internal/dynmgmt"
	"repro/internal/tpcc"
	"repro/internal/tpch"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

func main() {
	machine := vmsim.Default()
	cal, err := calibrate.CalibrateDB2(machine, calibrate.Options{})
	if err != nil {
		log.Fatal(err)
	}
	dssSchema := tpch.Schema(1)
	oltpSchema := tpcc.Schema(5)
	dss := workload.New("dss", tpch.Statement(1), tpch.Statement(18))
	oltp := tpcc.Mix(5, 8, 1).Scale(0.02)

	// Each input is keyed by its VM slot, not its workload: the manager's
	// state belongs to the slot, so when the workloads trade VMs each
	// slot's per-query estimate jumps and reads as a major change.
	mkInput := func(vm string, w *workload.Workload, schema any) dynmgmt.PeriodInput {
		var sys dbms.System
		if schema == dssSchema {
			sys = db2sim.New(dssSchema)
		} else {
			sys = db2sim.New(oltpSchema)
		}
		est := &core.WhatIfEstimator{
			Sys:             sys,
			Params:          func(a dbms.Alloc) any { return cal.Params(a) },
			Renorm:          cal.Renorm(),
			Workload:        w,
			MachineMemBytes: machine.HW.MemoryBytes,
		}
		avg, err := est.AvgEstimatePerQuery(core.Allocation{0.5, 0.5})
		if err != nil {
			log.Fatal(err)
		}
		return dynmgmt.PeriodInput{
			ID:             vm,
			Estimator:      est,
			AvgEstPerQuery: avg,
			Measure: func(a core.Allocation) (float64, error) {
				return machine.RunWorkload(sys, w, dbms.Alloc{CPU: a[0], Mem: a[1]}.Clamp(0.01))
			},
		}
	}

	mgr := dynmgmt.NewManager(core.Options{Resources: 2, Delta: 0.05})
	swapped := false
	for period := 1; period <= 6; period++ {
		if period == 4 {
			swapped = true // the workloads trade VMs
		}
		w0, s0, w1, s1 := dss, any(dssSchema), oltp, any(oltpSchema)
		if swapped {
			w0, s0, w1, s1 = oltp, any(oltpSchema), dss, any(dssSchema)
		}
		rep, err := mgr.Period([]dynmgmt.PeriodInput{mkInput("vm0", w0, s0), mkInput("vm1", w1, s1)})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("period %d: vm0 cpu=%4.0f%% mem=%4.0f%%  change=%-5v rebuilt=%v\n",
			period, rep.Allocations[0][0]*100, rep.Allocations[0][1]*100,
			rep.Tenants[0].Change, rep.Tenants[0].Rebuilt)
	}
	fmt.Println("period 4's swap is classified major and the cost models are rebuilt")
}
