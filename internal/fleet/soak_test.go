package fleet

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/score"
)

// The soak harness: a seeded, deterministic 200-period scenario with
// per-period workload drift, arrivals, and departures, replayed against
// differently-configured orchestrators in lockstep. It is the regression
// net for the long-lived-fleet guarantees: swept caches never change a
// report (eviction may cost re-runs, never results), Parallelism never
// changes a report, and a sweep keeps the caches from growing
// monotonically.

// soakScenario generates the per-period tenant inputs: a fresh
// []*simTenant snapshot per period, so every orchestrator configuration
// replays the identical sequence.
func soakScenario(seed int64, periods int) [][]*simTenant {
	rng := rand.New(rand.NewSource(seed))
	type state struct {
		id                        string
		alpha, gamma, gain, limit float64
	}
	var live []state
	next := 0
	add := func() {
		s := state{
			id:    "s" + string(rune('A'+next/26)) + string(rune('a'+next%26)),
			alpha: 8 + 70*rng.Float64(),
			gamma: 3 + 25*rng.Float64(),
		}
		next++
		if rng.Float64() < 0.3 {
			s.gain = 1 + 2*rng.Float64()
		}
		if rng.Float64() < 0.25 {
			s.limit = 3.5 + 2.5*rng.Float64()
		}
		live = append(live, s)
	}
	for i := 0; i < 6; i++ {
		add()
	}
	out := make([][]*simTenant, periods)
	for p := range out {
		if p > 0 { // churn after the initial placement period
			if len(live) > 3 && rng.Float64() < 0.12 {
				i := rng.Intn(len(live))
				live = append(live[:i], live[i+1:]...)
			}
			if len(live) < 12 && rng.Float64() < 0.18 {
				add()
			}
			for i := range live {
				if rng.Float64() < 0.3 {
					live[i].alpha *= 0.9 + 0.25*rng.Float64()
					live[i].gamma *= 0.92 + 0.2*rng.Float64()
				}
			}
		}
		snap := make([]*simTenant, len(live))
		for i, s := range live {
			snap[i] = &simTenant{id: s.id, alpha: s.alpha, gamma: s.gamma, gain: s.gain, limit: s.limit}
		}
		out[p] = snap
	}
	return out
}

// soakFleet is the soak topology: two fast and two slow machines,
// capacity 4 tenants each (MinShare 0.25).
func soakFleet() *simFleet {
	return &simFleet{
		profiles: []string{"big", "big", "small", "small"},
		factors:  map[string]float64{"big": 1, "small": 2},
	}
}

// soakOptions is the fully-loaded option set the soak runs under —
// migration hysteresis, local search, joint admission — with the cache
// and parallelism knobs left to each configuration.
func soakOptions(sf *simFleet) Options {
	return Options{
		Profiles:      sf.profiles,
		MigrationCost: 3,
		LocalSearch:   2,
		AdmitQoS:      true,
		Core:          core.Options{Delta: 0.2, MinShare: 0.25, Parallelism: 1},
	}
}

// runSoak replays the scenario on one orchestrator configuration,
// invoking check (when non-nil) after every period.
func runSoak(t *testing.T, scenario [][]*simTenant, opts Options,
	check func(period int, o *Orchestrator)) []*PeriodReport {
	t.Helper()
	sf := soakFleet()
	o, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*PeriodReport, len(scenario))
	for p, tenants := range scenario {
		if reps[p], err = o.Period(sf.inputs(tenants)); err != nil {
			t.Fatalf("period %d: %v", p+1, err)
		}
		if check != nil {
			check(p+1, o)
		}
	}
	return reps
}

// The main soak: 200 periods of churn, replayed with (a) unbounded
// caches, (b) caches under a generation sweep, and (c) the swept caches
// at Parallelism 8. All three report histories must be bit-identical,
// and the swept run must actually evict.
func TestFleetSoakBoundedCacheParity(t *testing.T) {
	if testing.Short() {
		t.Skip("200-period soak skipped in -short mode")
	}
	const (
		periods = 200
		sweep   = 4
	)
	scenario := soakScenario(1, periods)
	sf := soakFleet()

	unbounded := runSoak(t, scenario, soakOptions(sf), nil)

	sopts := soakOptions(sf)
	sopts.CacheSweep = sweep
	var scoreEv, estEv int64
	swept := runSoak(t, scenario, sopts, func(period int, o *Orchestrator) {
		scoreEv, estEv = o.CacheEvictions()
	})
	samePeriodReports(t, "swept vs unbounded", unbounded, swept)
	if scoreEv == 0 || estEv == 0 {
		t.Fatalf("soak never evicted: score %d, estimate %d evictions", scoreEv, estEv)
	}

	popts := sopts
	popts.Core.Parallelism = 8
	parallel := runSoak(t, scenario, popts, nil)
	samePeriodReports(t, "parallelism 1 vs 8", unbounded, parallel)
}

// A generation sweep must hold the caches to the recent working set: with entries untouched for K periods dropped,
// the entry count after 100 periods of churn stays within a fixed bound
// instead of growing with the total number of configurations ever
// scored, which the unbounded run demonstrably exceeds.
func TestFleetSoakSweepBoundsGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("100-period soak skipped in -short mode")
	}
	const periods = 100
	scenario := soakScenario(2, periods)
	sf := soakFleet()

	swopts := soakOptions(sf)
	swopts.CacheSweep = 3
	maxScores, maxEsts := 0, 0
	swept := runSoak(t, scenario, swopts, func(period int, o *Orchestrator) {
		s, e := o.CacheSizes()
		if s > maxScores {
			maxScores = s
		}
		if e > maxEsts {
			maxEsts = e
		}
	})

	var finalUnbounded int
	unbounded := runSoak(t, scenario, soakOptions(sf), func(period int, o *Orchestrator) {
		finalUnbounded, _ = o.CacheSizes()
	})
	samePeriodReports(t, "swept vs unbounded", unbounded, swept)

	// The swept cache's high-water mark must sit well below the unbounded
	// cache's final size — K periods of working set, not all of history.
	if maxScores*2 >= finalUnbounded {
		t.Fatalf("sweep did not bound growth: swept high-water %d vs unbounded final %d",
			maxScores, finalUnbounded)
	}
	if maxEsts == 0 || maxScores == 0 {
		t.Fatal("soak produced empty caches")
	}
}

// Seeded search under soak (LocalSearch > 0 seeds each period's
// candidate from the incumbent): it must (a) stay bit-identical across
// Parallelism, (b) keep the same swept-cache parity, and (c) never end a
// candidate worse than greedy-from-scratch packing. Greedy-from-scratch
// does not depend on the incumbent, so the test computes it itself:
// placement.Place over each period's placed tenants, in input order,
// with the fleet's one cell's placement options.
func TestFleetSoakIncrementalShadowParity(t *testing.T) {
	if testing.Short() {
		t.Skip("80-period soak skipped in -short mode")
	}
	const periods = 80
	scenario := soakScenario(3, periods)
	sf := soakFleet()

	iopts := soakOptions(sf)
	reports := runSoak(t, scenario, iopts, nil)
	popts := placement.Options{Profiles: iopts.Profiles, Core: iopts.Core, LocalSearch: iopts.LocalSearch,
		Scores: score.NewCache(), Estimates: score.NewEstimates()}
	const eps = 1e-9
	for p, rep := range reports {
		var placed []placement.Tenant
		for _, in := range sf.inputs(scenario[p]) {
			if _, ok := rep.Assignment[in.ID]; ok {
				placed = append(placed, placement.Tenant{Name: in.ID, EstFor: in.EstFor,
					Gain: in.Gain, Limit: in.Limit, Fingerprint: in.Fingerprint})
			}
		}
		scratch, err := placement.Place(placed, popts)
		if err != nil {
			t.Fatalf("period %d: greedy-from-scratch placement: %v", p+1, err)
		}
		if rep.CandidateCost > scratch.GreedyCost+eps {
			t.Fatalf("period %d: seeded candidate %v worse than greedy-from-scratch %v",
				p+1, rep.CandidateCost, scratch.GreedyCost)
		}
	}

	sopts := iopts
	sopts.CacheSweep = 4
	samePeriodReports(t, "seeded swept", reports, runSoak(t, scenario, sopts, nil))

	p8 := iopts
	p8.Core.Parallelism = 8
	samePeriodReports(t, "seeded p8", reports, runSoak(t, scenario, p8, nil))
}

// The acceptance bar for swept caches: a steady-state period still
// performs ZERO fresh advisor runs — the sweep must not break the
// cross-period reuse that makes steady periods cheap.
func TestFleetBoundedCacheSteadyStateZeroRuns(t *testing.T) {
	sf := soakFleet()
	opts := soakOptions(sf)
	opts.CacheSweep = 3
	o, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	tenants := soakScenario(4, 1)[0]
	for p := 0; p < 3; p++ {
		if _, err := o.Period(sf.inputs(tenants)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, before := o.ScoreStats()
	if _, err := o.Period(sf.inputs(tenants)); err != nil {
		t.Fatal(err)
	}
	if _, _, after := o.ScoreStats(); after != before {
		t.Fatalf("steady-state period ran %d fresh advisor runs with a swept cache", after-before)
	}
	if s, e := o.CacheSizes(); s == 0 || e == 0 {
		t.Fatalf("the sweep emptied the working set: scores=%d estimates=%d", s, e)
	}
}
