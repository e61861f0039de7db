package experiments

import (
	"repro/internal/core"
	"repro/internal/fleet"
)

func init() {
	register("fleet-cache", FleetScaleCache)
}

// FleetScaleCache is the incremental-scoring scaling figure: steady-state
// monitoring-period cost — fresh advisor runs and wall-clock latency —
// with the machine-score cache on vs off, as the fleet grows. Without
// the cache every period re-scores every machine (candidate placement
// plus one manager advisor run per machine), so period cost grows with
// fleet size even when nothing changed; with the cache a steady period
// performs zero fresh advisor runs — the whole period is served from the
// previous periods' scorings.
func FleetScaleCache(env *Env) (*Result, error) {
	res := &Result{
		ID:     "fleet-cache",
		Title:  "Incremental scoring: steady-period advisor runs and latency, cache on vs off, vs fleet size",
		XLabel: "servers",
		YLabel: "fresh advisor runs / period milliseconds",
	}
	var runsCached, runsUncached, msCached, msUncached []float64
	for _, servers := range []int{2, 3, 4} {
		profiles := make([]string, servers)
		factors := map[string]float64{"big": 1, "small": 2}
		for s := range profiles {
			profiles[s] = "big"
			if s%2 == 1 {
				profiles[s] = "small"
			}
		}
		inputs := make([]fleet.Tenant, 2*servers)
		for i := range inputs {
			inputs[i] = scaleFleetTenant(i, profiles, factors)
		}
		optsOf := func(disable bool) fleet.Options {
			return fleet.Options{
				Profiles:          profiles,
				MigrationCost:     5,
				Core:              core.Options{Delta: 0.1, Parallelism: searchParallelism},
				DisableScoreCache: disable,
			}
		}
		// Every period recomputes every cell. This figure isolates the
		// score cache: a delta period would otherwise replay the steady
		// period without consulting it at all (that saving has its own
		// figure, fleet-scale).
		period := func(o *fleet.Orchestrator, disable bool) (ms float64, err error) {
			ns, err := recomputePeriod(o, optsOf(disable), inputs, "fleet-cache period")
			return float64(ns) / 1e6, err
		}
		// Cached fleet: warm to steady state (a period with zero fresh
		// runs), then measure one steady period.
		cached, err := fleet.New(optsOf(false))
		if err != nil {
			return nil, err
		}
		warm := 0
		for ; warm < 10; warm++ {
			_, _, before := cached.ScoreStats()
			if _, err := period(cached, false); err != nil {
				return nil, err
			}
			if _, _, after := cached.ScoreStats(); after == before {
				break
			}
		}
		hitsBefore, _, runsBefore := cached.ScoreStats()
		cachedMs, err := period(cached, false)
		if err != nil {
			return nil, err
		}
		hitsAfter, _, runsAfter := cached.ScoreStats()
		runsCached = append(runsCached, float64(runsAfter-runsBefore))
		// Every steady-period cache hit stands in for a fresh advisor run
		// a cache-less fleet would perform.
		runsUncached = append(runsUncached, float64((runsAfter-runsBefore)+(hitsAfter-hitsBefore)))
		msCached = append(msCached, cachedMs)

		// Uncached fleet: same warmup length, then time one period.
		plain, err := fleet.New(optsOf(true))
		if err != nil {
			return nil, err
		}
		for p := 0; p <= warm; p++ {
			if _, err := period(plain, true); err != nil {
				return nil, err
			}
		}
		plainMs, err := period(plain, true)
		if err != nil {
			return nil, err
		}
		msUncached = append(msUncached, plainMs)

		res.X = append(res.X, float64(servers))
	}
	res.AddSeries("steady-runs-cached", runsCached)
	res.AddSeries("steady-runs-uncached", runsUncached)
	res.AddSeries("steady-ms-cached", msCached)
	res.AddSeries("steady-ms-uncached", msUncached)
	res.Note("a steady-state period performs 0 fresh advisor runs with the cache; without it every machine re-scores every period")
	res.Note("wall-clock series are environment-dependent; the runs series are deterministic")
	return res, nil
}
