package main

// The layer pass of a traced run: direct, timed calls into the layers
// below the fleet — core.Recommend, core.WhatIfEstimator.Estimate, the
// pgsim and db2sim System.WhatIf and System.Optimize, and
// vmsim.Machine.RunWorkload — on the run's own tenants, grouped as the
// final period placed them. Each call is made once untimed first, so
// plan caches are warm and the timed calls price the steady-state path
// (System.Optimize plans from scratch every time). Every figure is a
// mean over the calls, so that count × mean is the time those calls
// take.

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dbms"

	vdesign "repro"
)

// layerCosts are the layer pass's results.
type layerCosts struct {
	recommendUs, callsPerRecommend float64
	estimateUs                     float64
	pgWhatIfUs, db2WhatIfUs        float64
	planUs                         float64
	runWorkloadUs                  float64
}

var inf = math.Inf(1)

// layerReps is how many timed repetitions each call gets, and
// layerServers how many occupied servers the pass samples.
const (
	layerReps    = 3
	layerServers = 6
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerPass runs the direct calls on a seeded sample of the occupied
// servers of a fleet's last period.
func layerPass(s *session, seed int64) (layerCosts, error) {
	var lc layerCosts
	rep := s.b.f.Report()
	last := rep[len(rep)-1]
	groups := serverGroups(s.b, last)
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	var recs, calls, estimates, runs, plans []float64
	whatif := map[vdesign.Flavor][]float64{}
	for _, srv := range sampleServers(groups, layerServers, g) {
		members := groups[srv]
		m := machineOf(profileOf(srv))
		n := len(members)
		ests := make([]core.Estimator, n)
		gains := make([]float64, n)
		limits := make([]float64, n)
		eq := core.Allocation{1 / float64(n), 1 / float64(n)}
		for i, sp := range members {
			est, err := estimatorFor(sp, m)
			if err != nil {
				return lc, err
			}
			ests[i] = est
			gains[i], limits[i] = 1, inf
			if sp.qos.GainFactor >= 1 {
				gains[i] = sp.qos.GainFactor
			}
			if sp.qos.DegradationLimit >= 1 {
				limits[i] = sp.qos.DegradationLimit
			}
			alloc := dbms.Alloc{CPU: eq[0], Mem: eq[1]}
			params := est.Params(alloc)
			vmMem := alloc.Mem * m.HW.MemoryBytes
			for _, st := range sp.w.Statements {
				if _, err := est.Sys.Optimize(st.Stmt, params); err != nil {
					return lc, err
				}
				t0 := time.Now()
				for r := 0; r < layerReps; r++ {
					if _, err := est.Sys.Optimize(st.Stmt, params); err != nil {
						return lc, err
					}
				}
				plans = append(plans, us(time.Since(t0))/layerReps)
				if _, _, err := est.Sys.WhatIf(st.Stmt, vmMem, params); err != nil {
					return lc, err
				}
				t0 = time.Now()
				for r := 0; r < layerReps; r++ {
					if _, _, err := est.Sys.WhatIf(st.Stmt, vmMem, params); err != nil {
						return lc, err
					}
				}
				whatif[sp.flavor] = append(whatif[sp.flavor], us(time.Since(t0))/layerReps)
			}
			if _, _, err := est.Estimate(eq); err != nil {
				return lc, err
			}
			t0 := time.Now()
			for r := 0; r < layerReps; r++ {
				if _, _, err := est.Estimate(eq); err != nil {
					return lc, err
				}
			}
			estimates = append(estimates, us(time.Since(t0))/layerReps)
			sys := newSystem(sp)
			if _, err := m.RunWorkload(sys, sp.w, alloc); err != nil {
				return lc, err
			}
			t0 = time.Now()
			for r := 0; r < layerReps; r++ {
				if _, err := m.RunWorkload(sys, sp.w, alloc); err != nil {
					return lc, err
				}
			}
			runs = append(runs, us(time.Since(t0))/layerReps)
		}
		opts := core.Options{Resources: 2, Delta: s.b.opts.Delta, Parallelism: s.b.opts.Parallelism, Gains: gains, Limits: limits}
		if _, err := core.Recommend(ests, opts); err != nil {
			return lc, err
		}
		for r := 0; r < layerReps; r++ {
			t0 := time.Now()
			res, err := core.Recommend(ests, opts)
			if err != nil {
				return lc, err
			}
			recs = append(recs, us(time.Since(t0)))
			calls = append(calls, float64(res.EstimatorCalls))
		}
	}
	lc.recommendUs = mean(recs)
	lc.callsPerRecommend = mean(calls)
	lc.estimateUs = mean(estimates)
	lc.pgWhatIfUs = mean(whatif[vdesign.PostgreSQL])
	lc.db2WhatIfUs = mean(whatif[vdesign.DB2])
	lc.planUs = mean(plans)
	lc.runWorkloadUs = mean(runs)
	return lc, nil
}
