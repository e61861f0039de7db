// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7). Each benchmark runs its experiment once per iteration
// and, under -v or with b.N == 1, logs the rendered series so the bench
// run doubles as the reproduction report (the shapes, not the absolute
// numbers, are the comparison targets; each figure's notes print the
// paper's value beside the measured one).
package vdesign

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/tpch"
)

var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		b.Fatalf("environment: %v", envErr)
	}
	return envVal
}

func runExperiment(b *testing.B, id string) {
	env := benchEnv(b)
	b.ResetTimer()
	var rendered string
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, env)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		rendered = res.Render()
	}
	b.StopTimer()
	if rendered != "" {
		b.Log("\n" + rendered)
	}
}

func BenchmarkFig02Motivating(b *testing.B)          { runExperiment(b, "fig02") }
func BenchmarkFig05PGCPUTupleCost(b *testing.B)      { runExperiment(b, "fig05") }
func BenchmarkFig06DB2CPUSpeed(b *testing.B)         { runExperiment(b, "fig06") }
func BenchmarkFig07PGRandomPage(b *testing.B)        { runExperiment(b, "fig07") }
func BenchmarkFig08DB2TransferRate(b *testing.B)     { runExperiment(b, "fig08") }
func BenchmarkFig09Surface(b *testing.B)             { runExperiment(b, "fig09") }
func BenchmarkFig10Surface(b *testing.B)             { runExperiment(b, "fig10") }
func BenchmarkFig12VaryCPUIntensityDB2(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkFig13VaryCPUIntensityPG(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkFig14VarySizeDB2(b *testing.B)         { runExperiment(b, "fig14") }
func BenchmarkFig15VarySizePG(b *testing.B)          { runExperiment(b, "fig15") }
func BenchmarkFig16SizeNotIntensityDB2(b *testing.B) { runExperiment(b, "fig16") }
func BenchmarkFig17SizeNotIntensityPG(b *testing.B)  { runExperiment(b, "fig17") }
func BenchmarkFig18VaryMemoryDB2(b *testing.B)       { runExperiment(b, "fig18") }
func BenchmarkFig19DegradationLimit(b *testing.B)    { runExperiment(b, "fig19") }
func BenchmarkFig20GainFactor(b *testing.B)          { runExperiment(b, "fig20") }
func BenchmarkFig21RandomPG(b *testing.B)            { runExperiment(b, "fig21") }
func BenchmarkFig22MixDB2(b *testing.B)              { runExperiment(b, "fig22") }
func BenchmarkFig23MixPG(b *testing.B)               { runExperiment(b, "fig23") }
func BenchmarkFig24VsOptimalPG(b *testing.B)         { runExperiment(b, "fig24") }
func BenchmarkFig25MultiCPU(b *testing.B)            { runExperiment(b, "fig25") }
func BenchmarkFig26MultiMemory(b *testing.B)         { runExperiment(b, "fig26") }
func BenchmarkFig27MultiVsOptimal(b *testing.B)      { runExperiment(b, "fig27") }
func BenchmarkFig28RefineDB2(b *testing.B)           { runExperiment(b, "fig28") }
func BenchmarkFig29RefinePG(b *testing.B)            { runExperiment(b, "fig29") }
func BenchmarkFig30RefineImproveDB2(b *testing.B)    { runExperiment(b, "fig30") }
func BenchmarkFig31RefineImprovePG(b *testing.B)     { runExperiment(b, "fig31") }
func BenchmarkFig32RefineMultiCPU(b *testing.B)      { runExperiment(b, "fig32") }
func BenchmarkFig33RefineMultiMem(b *testing.B)      { runExperiment(b, "fig33") }
func BenchmarkFig34RefineMultiImprove(b *testing.B)  { runExperiment(b, "fig34") }
func BenchmarkFig35DynamicShares(b *testing.B)       { runExperiment(b, "fig35") }
func BenchmarkFig36DynamicImprove(b *testing.B)      { runExperiment(b, "fig36") }
func BenchmarkSec72SearchCost(b *testing.B)          { runExperiment(b, "sec7.2") }
func BenchmarkFleetMigration(b *testing.B)           { runExperiment(b, "fleet-migration") }
func BenchmarkAblationCostCache(b *testing.B)        { runExperiment(b, "ablation-cache") }
func BenchmarkAblationDelta(b *testing.B)            { runExperiment(b, "ablation-delta") }
func BenchmarkAblationCalibrationGrid(b *testing.B)  { runExperiment(b, "ablation-calibgrid") }

// parallelBenchEstimators builds n calibrated TPC-H what-if estimators —
// the real workload of the advisor's hot loop — through the public server
// API. NewServer pulls both calibrations from the process-wide
// calibration cache (one shared run per machine profile), so benchmark
// setup time is search setup, not recalibration, no matter how many
// sub-benchmarks construct servers.
func parallelBenchEstimators(b *testing.B, n int) []core.Estimator {
	b.Helper()
	srv, err := NewServer()
	if err != nil {
		b.Fatal(err)
	}
	schema := tpch.Schema(1)
	for i := 0; i < n; i++ {
		// Vary the query mix so tenants have distinct resource appetites.
		var queries []string
		for q := 1 + i%4; q <= tpch.QueryCount; q += 4 {
			queries = append(queries, tpch.QueryText(q))
		}
		if _, err := srv.AddTenant(fmt.Sprintf("t%d", i), PostgreSQL, schema, queries); err != nil {
			b.Fatal(err)
		}
	}
	ests := make([]core.Estimator, n)
	for i, t := range srv.tenants {
		ests[i] = t.est
	}
	return ests
}

// BenchmarkGreedyParallel measures the greedy enumerator at 4 and 8
// tenants across worker counts. Results are bit-identical across the
// sub-benchmarks; only wall-clock changes.
func BenchmarkGreedyParallel(b *testing.B) {
	for _, n := range []int{4, 8} {
		ests := parallelBenchEstimators(b, n)
		// Warm the simulated systems' deployed-plan caches so every
		// sub-benchmark measures what-if repricing, not one-time planning.
		if _, err := core.Recommend(ests, core.Options{Delta: 0.05}); err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("tenants=%d/workers=%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Recommend(ests, core.Options{Delta: 0.05, Parallelism: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExhaustiveParallel measures the exhaustive oracle over the full
// CPU×memory δ-grid at 4 tenants across worker counts (chunked
// work-stealing with early-abandon on the running best).
func BenchmarkExhaustiveParallel(b *testing.B) {
	ests := parallelBenchEstimators(b, 4)
	if _, err := core.Exhaustive(ests, core.Options{Delta: 0.1}); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("tenants=4/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Exhaustive(ests, core.Options{Delta: 0.1, Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetPeriod measures one fleet monitoring period in steady
// state — the orchestrator's hot path: candidate + stay-put placement
// pricing plus the per-machine dynamic-management loop — on a 3-machine,
// 2-profile fleet with 6 tenants, across worker counts. Reports are
// bit-identical across the sub-benchmarks.
func BenchmarkFleetPeriod(b *testing.B) {
	schema := tpch.Schema(1)
	for _, workers := range []int{1, 4} {
		f := NewFleet(&FleetOptions{MigrationCost: 5, Delta: 0.1, Parallelism: workers})
		for _, p := range []MachineProfile{{}, {}, {CPUHz: 1.1e9, MemoryBytes: 4 << 30}} {
			if _, err := f.AddServer(p); err != nil {
				b.Fatal(err)
			}
		}
		for i, q := range []int{1, 18, 6, 5, 14, 17} {
			flavor := PostgreSQL
			if i%2 == 1 {
				flavor = DB2
			}
			if _, err := f.AddTenant(fmt.Sprintf("t%d", i), flavor, schema, []string{tpch.QueryText(q)}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := f.Period(); err != nil { // initial placement + warm caches
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.Period(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterPlace measures the multi-machine placement layer: 6
// TPC-H tenants packed onto 2 and 3 servers, across worker counts.
// Assignments are bit-identical across the sub-benchmarks.
func BenchmarkClusterPlace(b *testing.B) {
	schema := tpch.Schema(1)
	build := func(servers int) *Cluster {
		c, err := NewCluster()
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < servers; s++ {
			c.AddServer()
		}
		for i := 0; i < 6; i++ {
			var queries []string
			for q := 1 + i%4; q <= tpch.QueryCount; q += 4 {
				queries = append(queries, tpch.QueryText(q))
			}
			if _, err := c.AddTenant(fmt.Sprintf("t%d", i), PostgreSQL, schema, queries); err != nil {
				b.Fatal(err)
			}
		}
		return c
	}
	for _, servers := range []int{2, 3} {
		c := build(servers)
		if _, err := c.Place(&Options{Delta: 0.1}); err != nil {
			b.Fatal(err) // warm the deployed-plan caches
		}
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("servers=%d/workers=%d", servers, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := c.Place(&Options{Delta: 0.1, Parallelism: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFleetScale(b *testing.B) { runExperiment(b, "fleet-scale") }

// BenchmarkPlacementLocalSearch measures the post-greedy local-search
// phase: 6 TPC-H tenants packed onto 3 servers with rounds=0 (plain
// greedy) vs rounds=3. Placements are bit-identical across worker
// counts; local search only ever lowers the objective.
func BenchmarkPlacementLocalSearch(b *testing.B) {
	schema := tpch.Schema(1)
	c, err := NewCluster()
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		c.AddServer()
	}
	for i := 0; i < 6; i++ {
		var queries []string
		for q := 1 + i%4; q <= tpch.QueryCount; q += 4 {
			queries = append(queries, tpch.QueryText(q))
		}
		if _, err := c.AddTenant(fmt.Sprintf("t%d", i), PostgreSQL, schema, queries); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := c.Place(&Options{Delta: 0.1}); err != nil {
		b.Fatal(err) // warm the deployed-plan caches
	}
	for _, rounds := range []int{0, 3} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Place(&Options{Delta: 0.1, LocalSearch: rounds}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetPeriodCached measures a steady-state fleet monitoring
// period — no arrivals, no departures, no drift — served by the
// machine-score cache: a steady period performs zero fresh
// core.Recommend runs on the unchanged machines (logged below).
func BenchmarkFleetPeriodCached(b *testing.B) {
	schema := tpch.Schema(1)
	f := NewFleet(&FleetOptions{MigrationCost: 5, Delta: 0.1})
	for _, p := range []MachineProfile{{}, {}, {CPUHz: 1.1e9, MemoryBytes: 4 << 30}} {
		if _, err := f.AddServer(p); err != nil {
			b.Fatal(err)
		}
	}
	for i, q := range []int{1, 18, 6, 5, 14, 17} {
		flavor := PostgreSQL
		if i%2 == 1 {
			flavor = DB2
		}
		if _, err := f.AddTenant(fmt.Sprintf("t%d", i), flavor, schema, []string{tpch.QueryText(q)}); err != nil {
			b.Fatal(err)
		}
	}
	// Warm to steady state: the managers converge and a period stops
	// producing fresh advisor runs.
	for p := 0; p < 6; p++ {
		if _, err := f.Period(); err != nil {
			b.Fatal(err)
		}
	}
	// A steady period must stay allocation-bounded: the orchestrator's
	// scratch pool reuses the per-period bookkeeping buffers, so what
	// remains is the fleet layer's per-call work (tenant inputs, the
	// report wrapper) — measured at ~83 allocs; the bound leaves headroom
	// without letting the pool silently stop pooling.
	const maxSteadyAllocs = 160
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := f.Period(); err != nil {
			b.Fatal(err)
		}
	}); allocs > maxSteadyAllocs {
		b.Fatalf("steady period allocates %.0f objects, want ≤ %d (scratch pooling regressed?)", allocs, maxSteadyAllocs)
	}
	b.Run("cache=on", func(b *testing.B) {
		_, _, runsBefore := f.ScoreStats()
		for i := 0; i < b.N; i++ {
			if _, err := f.Period(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		_, _, runsAfter := f.ScoreStats()
		b.Logf("fresh advisor runs over %d steady period(s): %d (want 0)", b.N, runsAfter-runsBefore)
	})
}

// BenchmarkFleetPeriodIncremental measures a drifting fleet period —
// one tenant's workload alternates every period, so the candidate
// placement always has fresh configurations to score — under seeded
// local search (LocalSearch > 0 seeds each period from the incumbent)
// and a swept score cache.
func BenchmarkFleetPeriodIncremental(b *testing.B) {
	schema := tpch.Schema(1)
	f := NewFleet(&FleetOptions{
		MigrationCost:   5,
		Delta:           0.1,
		LocalSearch:     2,
		ScoreCacheSweep: 8,
	})
	for _, p := range []MachineProfile{{}, {}, {CPUHz: 1.1e9, MemoryBytes: 4 << 30}} {
		if _, err := f.AddServer(p); err != nil {
			b.Fatal(err)
		}
	}
	var drifty *FleetTenant
	for i, q := range []int{1, 18, 6, 5, 14, 17} {
		h, err := f.AddTenant(fmt.Sprintf("t%d", i), PostgreSQL, schema, []string{tpch.QueryText(q)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			drifty = h
		}
	}
	for p := 0; p < 4; p++ {
		if _, err := f.Period(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := mustWorkload("t0", tpch.QueryText(1+i%2), tpch.QueryText(6))
		if err := f.SetWorkload(drifty, w); err != nil {
			b.Fatal(err)
		}
		if _, err := f.Period(); err != nil {
			b.Fatal(err)
		}
	}
}
