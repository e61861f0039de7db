package refine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

// synthSamples builds enumeration-style samples from a ground-truth cost
// function over a grid, tagging plans by a memory threshold to create two
// intervals.
func synthSamples(cost func(cpu, mem float64) float64, planAt func(mem float64) string) []core.Sample {
	var out []core.Sample
	for _, cpu := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		for _, mem := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			out = append(out, core.Sample{
				Alloc:   core.Allocation{cpu, mem},
				Seconds: cost(cpu, mem),
				PlanSig: planAt(mem),
			})
		}
	}
	return out
}

func singlePlan(float64) string { return "p" }

func TestNewModelRecoversLinearCost(t *testing.T) {
	truth := func(cpu, mem float64) float64 { return 40/cpu + 10/mem + 3 }
	md, err := NewModel(synthSamples(truth, singlePlan), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(md.Intervals) != 1 {
		t.Fatalf("intervals: %d", len(md.Intervals))
	}
	for _, a := range []core.Allocation{{0.2, 0.4}, {0.6, 0.8}, {0.45, 0.15}} {
		est, _, err := md.Estimate(a)
		if err != nil {
			t.Fatal(err)
		}
		want := truth(a[0], a[1])
		if math.Abs(est-want) > 1e-6*want {
			t.Fatalf("estimate at %v: %v want %v", a, est, want)
		}
	}
}

func TestNewModelBuildsIntervalsFromPlanChanges(t *testing.T) {
	truth := func(cpu, mem float64) float64 {
		if mem < 0.5 {
			return 80/cpu + 30/mem + 5 // external plan
		}
		return 40/cpu + 8/mem + 2
	}
	plans := func(mem float64) string {
		if mem < 0.5 {
			return "ext"
		}
		return "mem"
	}
	md, err := NewModel(synthSamples(truth, plans), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(md.Intervals) != 2 {
		t.Fatalf("want 2 intervals, got %d: %s", len(md.Intervals), md)
	}
	if md.Intervals[0].Plan != "ext" || md.Intervals[1].Plan != "mem" {
		t.Fatalf("interval order: %s", md)
	}
	est, sig, err := md.Estimate(core.Allocation{0.5, 0.3})
	if err != nil || sig != "ext" {
		t.Fatalf("est=%v sig=%q err=%v", est, sig, err)
	}
	if want := truth(0.5, 0.3); math.Abs(est-want) > 1e-6*want {
		t.Fatalf("ext interval estimate: %v want %v", est, want)
	}
}

func TestObserveFirstIterationScalesAllIntervals(t *testing.T) {
	truth := func(cpu, mem float64) float64 {
		if mem < 0.5 {
			return 80/cpu + 30/mem + 5
		}
		return 40/cpu + 8/mem + 2
	}
	plans := func(mem float64) string {
		if mem < 0.5 {
			return "ext"
		}
		return "mem"
	}
	md, _ := NewModel(synthSamples(truth, plans), 2)
	a := core.Allocation{0.5, 0.7}
	est0, _, _ := md.Estimate(a)
	// Actual is uniformly 2x the model: first observation should scale
	// every interval by ~2.
	other := core.Allocation{0.5, 0.2}
	beforeOther, _, _ := md.Estimate(other)
	if _, err := md.Observe(a, est0*2); err != nil {
		t.Fatal(err)
	}
	afterSame, _, _ := md.Estimate(a)
	afterOther, _, _ := md.Estimate(other)
	if math.Abs(afterSame-2*est0) > 1e-6*est0 {
		t.Fatalf("observed interval not scaled: %v want %v", afterSame, 2*est0)
	}
	if math.Abs(afterOther-2*beforeOther) > 1e-6*beforeOther {
		t.Fatalf("other interval not scaled on first iteration: %v want %v", afterOther, 2*beforeOther)
	}
}

func TestObserveLaterIterationsScaleOnlyObservedInterval(t *testing.T) {
	truth := func(cpu, mem float64) float64 {
		if mem < 0.5 {
			return 80/cpu + 30/mem + 5
		}
		return 40/cpu + 8/mem + 2
	}
	plans := func(mem float64) string {
		if mem < 0.5 {
			return "ext"
		}
		return "mem"
	}
	md, _ := NewModel(synthSamples(truth, plans), 2)
	md.FirstScaled = true // skip the scale-all step
	a := core.Allocation{0.5, 0.7}
	other := core.Allocation{0.5, 0.2}
	estA0, _, _ := md.Estimate(a)
	estO0, _, _ := md.Estimate(other)
	if _, err := md.Observe(a, estA0*1.5); err != nil {
		t.Fatal(err)
	}
	estA1, _, _ := md.Estimate(a)
	estO1, _, _ := md.Estimate(other)
	if math.Abs(estA1-1.5*estA0) > 1e-6*estA0 {
		t.Fatalf("observed interval: %v want %v", estA1, 1.5*estA0)
	}
	if math.Abs(estO1-estO0) > 1e-9 {
		t.Fatalf("unobserved interval must not move: %v -> %v", estO0, estO1)
	}
}

func TestObserveSwitchesToRegressionWithEnoughObservations(t *testing.T) {
	// Model starts wrong (estimates from a biased optimizer); after M+1=3
	// observations in the interval, the model must refit to the truth.
	biased := func(cpu, mem float64) float64 { return 10/cpu + 2/mem + 1 }
	truth := func(cpu, mem float64) float64 { return 50/cpu + 20/mem + 5 }
	md, _ := NewModel(synthSamples(biased, singlePlan), 2)
	obsAt := []core.Allocation{{0.2, 0.3}, {0.6, 0.5}, {0.4, 0.8}, {0.8, 0.2}}
	for _, a := range obsAt {
		if _, err := md.Observe(a, truth(a[0], a[1])); err != nil {
			t.Fatal(err)
		}
	}
	probe := core.Allocation{0.5, 0.5}
	est, _, _ := md.Estimate(probe)
	want := truth(0.5, 0.5)
	if math.Abs(est-want) > 0.01*want {
		t.Fatalf("after regression switch: est %v want %v", est, want)
	}
}

// End-to-end §5 behaviour: the optimizer systematically underestimates
// workload 1's CPU appetite; refinement must move CPU toward it and
// converge near the true optimum.
func TestRunCorrectsOptimizerBias(t *testing.T) {
	trueCosts := []func(cpu, mem float64) float64{
		func(cpu, mem float64) float64 { return 30/cpu + 5/mem + 1 },
		func(cpu, mem float64) float64 { return 90/cpu + 5/mem + 1 }, // truly CPU-hungry
	}
	estCosts := []func(cpu, mem float64) float64{
		trueCosts[0],
		func(cpu, mem float64) float64 { return 15/cpu + 5/mem + 1 }, // optimizer sees 1/6 of the CPU need
	}
	ests := []core.Estimator{
		core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
			return estCosts[0](a[0], a[1]), "p", nil
		}),
		core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
			return estCosts[1](a[0], a[1]), "p", nil
		}),
	}
	opts := core.Options{Delta: 0.05}
	initial, err := core.Recommend(ests, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Misled by the optimizer, the advisor gives workload 0 at least as
	// much CPU as workload 1.
	if initial.Allocations[1][0] > initial.Allocations[0][0] {
		t.Fatalf("premise broken: initial %v", initial.Allocations)
	}
	out, err := Run(initial, Config{
		Opts:     opts,
		MaxIters: 8,
		Measure: func(i int, a core.Allocation) (float64, error) {
			return trueCosts[i](a[0], a[1]), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Allocations[1][0] <= out.Allocations[0][0] {
		t.Fatalf("refinement failed to shift CPU: %v", out.Allocations)
	}
	// Compare with the advisor run directly on the truth.
	truthEsts := []core.Estimator{
		core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
			return trueCosts[0](a[0], a[1]), "p", nil
		}),
		core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
			return trueCosts[1](a[0], a[1]), "p", nil
		}),
	}
	oracle, err := core.Recommend(truthEsts, opts)
	if err != nil {
		t.Fatal(err)
	}
	var refined, optimal float64
	for i := range trueCosts {
		refined += trueCosts[i](out.Allocations[i][0], out.Allocations[i][1])
		optimal += trueCosts[i](oracle.Allocations[i][0], oracle.Allocations[i][1])
	}
	if refined > optimal*1.08 {
		t.Fatalf("refined cost %.3f too far from oracle %.3f", refined, optimal)
	}
	if len(out.History) == 0 {
		t.Fatal("history missing")
	}
}

func TestRunConvergesWhenModelIsAlreadyRight(t *testing.T) {
	truth := func(cpu, mem float64) float64 { return 20/cpu + 10/mem }
	est := core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
		return truth(a[0], a[1]), "p", nil
	})
	initial, err := core.Recommend([]core.Estimator{est, est}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(initial, Config{
		Opts:     core.Options{},
		MaxIters: 5,
		Measure: func(i int, a core.Allocation) (float64, error) {
			return truth(a[0], a[1]), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("should converge immediately with a perfect model")
	}
	if len(out.History) != 1 {
		t.Fatalf("expected a single iteration, got %d", len(out.History))
	}
}

// The measurement phase fans over the worker pool when Opts.Parallelism
// > 1; like every other parallel path, the refined outcome — iteration
// history, models, and final allocations — must be bit-identical to a
// sequential run.
func TestRunMeasurementParallelParity(t *testing.T) {
	trueCosts := []func(cpu, mem float64) float64{
		func(cpu, mem float64) float64 { return 30 / cpu },
		func(cpu, mem float64) float64 { return 90/cpu + 10/mem },
		func(cpu, mem float64) float64 { return 20/cpu + 40/mem + 3 },
		func(cpu, mem float64) float64 { return 55/cpu + 5/mem + 1 },
	}
	run := func(parallelism int) *Outcome {
		ests := make([]core.Estimator, len(trueCosts))
		for i := range trueCosts {
			f := trueCosts[i]
			bias := 0.5 + 0.3*float64(i) // optimizer misjudges each tenant differently
			ests[i] = core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
				return bias * f(a[0], a[1]), "p", nil
			})
		}
		opts := core.Options{Delta: 0.05, Parallelism: parallelism}
		initial, err := core.Recommend(ests, opts)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(initial, Config{
			Opts:     opts,
			MaxIters: 6,
			Measure: func(i int, a core.Allocation) (float64, error) {
				return trueCosts[i](a[0], a[1]), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := run(1)
	for _, p := range []int{2, 8} {
		par := run(p)
		if par.Converged != seq.Converged || len(par.History) != len(seq.History) {
			t.Fatalf("p=%d: converged=%v/%v iterations=%d/%d",
				p, par.Converged, seq.Converged, len(par.History), len(seq.History))
		}
		for i := range seq.Allocations {
			for j := range seq.Allocations[i] {
				if seq.Allocations[i][j] != par.Allocations[i][j] {
					t.Fatalf("p=%d workload %d: allocations diverge: %v vs %v",
						p, i, par.Allocations[i], seq.Allocations[i])
				}
			}
		}
		for it := range seq.History {
			for i := range seq.History[it].Act {
				if seq.History[it].Act[i] != par.History[it].Act[i] ||
					seq.History[it].Est[i] != par.History[it].Est[i] {
					t.Fatalf("p=%d iteration %d workload %d: history diverges", p, it, i)
				}
			}
		}
	}
}

// A measurement failure in the parallel phase must surface (not hang or
// panic) regardless of worker count.
func TestRunMeasurementErrorPropagates(t *testing.T) {
	est := core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
		return 20/a[0] + 10/a[1], "p", nil
	})
	for _, p := range []int{1, 4} {
		initial, err := core.Recommend([]core.Estimator{est, est}, core.Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(initial, Config{
			Opts:     core.Options{Parallelism: p},
			MaxIters: 3,
			Measure: func(i int, a core.Allocation) (float64, error) {
				if i == 1 {
					return 0, fmt.Errorf("injected measurement failure")
				}
				return 20/a[0] + 10/a[1], nil
			},
		})
		if err == nil {
			t.Fatalf("p=%d: measurement failure must surface", p)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(&core.Result{}, Config{}); err == nil {
		t.Fatal("missing Measure should error")
	}
}

func TestNewModelErrors(t *testing.T) {
	if _, err := NewModel(nil, 2); err == nil {
		t.Fatal("no samples should error")
	}
}

// The score fingerprint must identify the model's exact content: stable
// while the model is untouched, advanced by every Observe, distinct
// across lineages, and preserved (then diverged) by Clone.
func TestModelScoreFingerprint(t *testing.T) {
	truth := func(cpu, mem float64) float64 { return 20/cpu + 5/mem }
	md, err := NewModel(synthSamples(truth, singlePlan), 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewModel(synthSamples(truth, singlePlan), 2)
	if err != nil {
		t.Fatal(err)
	}
	if md.ScoreFingerprint() == other.ScoreFingerprint() {
		t.Fatal("independent models must have distinct fingerprints")
	}
	fp0 := md.ScoreFingerprint()
	if again := md.ScoreFingerprint(); again != fp0 {
		t.Fatal("fingerprint must be stable without mutation")
	}
	before := ModelClones()
	clone := md.Clone()
	if ModelClones() != before+1 {
		t.Fatal("Clone must count")
	}
	if clone.ScoreFingerprint() != fp0 {
		t.Fatal("a clone shares its original's fingerprint")
	}
	if _, err := md.Observe(core.Allocation{0.5, 0.5}, truth(0.5, 0.5)*1.1); err != nil {
		t.Fatal(err)
	}
	if md.ScoreFingerprint() == fp0 {
		t.Fatal("Observe must advance the fingerprint")
	}
	if clone.ScoreFingerprint() != fp0 {
		t.Fatal("observing the original must not touch the clone")
	}
	// Note: a clone observed with DIFFERENT data would reach the same
	// lineage+version as the original with different content. The
	// snapshot discipline makes that unreachable for cache keys: clones
	// exist only as rollback snapshots, are restored only INSTEAD of the
	// state they were taken from, and within a period every advisor run
	// (the only cache writer) happens before any Observe.
}

// gapModel builds a two-plan model with a gap in memory between its
// intervals: plan "ext" fitted over memory [0.1, 0.4] with cost
// 4/cpu + 10/mem + 5, plan "mem" over [0.6, 0.9] with 4/cpu + 2/mem + 1.
// At cpu 0.5 and memory 0.5, inside the gap, ext predicts 33 and mem 13.
func gapModel(t *testing.T) *Model {
	t.Helper()
	var samples []core.Sample
	for _, cpu := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		for _, mem := range []float64{0.1, 0.2, 0.3, 0.4} {
			samples = append(samples, core.Sample{Alloc: core.Allocation{cpu, mem}, Seconds: 4/cpu + 10/mem + 5, PlanSig: "ext"})
		}
		for _, mem := range []float64{0.6, 0.7, 0.8, 0.9} {
			samples = append(samples, core.Sample{Alloc: core.Allocation{cpu, mem}, Seconds: 4/cpu + 2/mem + 1, PlanSig: "mem"})
		}
	}
	md, err := NewModel(samples, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(md.Intervals) != 2 || md.Intervals[0].Hi != 0.4 || md.Intervals[1].Lo != 0.6 {
		t.Fatalf("want intervals [0.1,0.4] and [0.6,0.9]: %s", md)
	}
	return md
}

// §5.1's gap rule without an observation: a level inside an interval
// belongs to it, and a level in the gap or past either end to the
// nearer interval, whose plan and cost Estimate then reports.
func TestLocateInsideAndGap(t *testing.T) {
	md := gapModel(t)
	for _, tc := range []struct {
		mem  float64
		want int
	}{
		{0.25, 0}, {0.75, 1}, // inside
		{0.45, 0}, {0.55, 1}, // in the gap, nearer one side
		{0.01, 0}, {0.99, 1}, // past either end
	} {
		if i := md.Locate(tc.mem); i != tc.want {
			t.Fatalf("Locate(%v) = %d, want %d", tc.mem, i, tc.want)
		}
		a := core.Allocation{0.5, tc.mem}
		est, plan, err := md.Estimate(a)
		if err != nil {
			t.Fatal(err)
		}
		iv := md.Intervals[tc.want]
		if plan != iv.Plan || est != iv.Eval(a) {
			t.Fatalf("Estimate at memory %v = (%v, %q), want interval %d's (%v, %q)",
				tc.mem, est, plan, tc.want, iv.Eval(a), iv.Plan)
		}
	}
}

// §5.1's gap rule with an observation in hand: Observe in the gap gives
// the observation to the neighbour whose prediction is closer to the
// actual cost and extends that interval to cover the level, leaving the
// other neighbour's bounds alone; inside an interval, the observation
// stays with it whatever the actual cost.
func TestObserveInGapPicksCloserPrediction(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    core.Allocation
		act  float64
		pick int
	}{
		{"gap, actual near mem's 13", core.Allocation{0.5, 0.5}, 14, 1},
		{"gap, actual near ext's 33", core.Allocation{0.5, 0.5}, 32, 0},
		{"inside ext, actual near mem's", core.Allocation{0.5, 0.3}, 13, 0},
	} {
		md := gapModel(t)
		md.FirstScaled = true // the later-iteration path
		bounds := [2][2]float64{{md.Intervals[0].Lo, md.Intervals[0].Hi}, {md.Intervals[1].Lo, md.Intervals[1].Hi}}
		if _, err := md.Observe(tc.a, tc.act); err != nil {
			t.Fatal(err)
		}
		lvl := tc.a[1]
		for i, iv := range md.Intervals {
			lo, hi := bounds[i][0], bounds[i][1]
			if i == tc.pick {
				lo, hi = math.Min(lo, lvl), math.Max(hi, lvl)
				if len(iv.Obs) != 1 || iv.Obs[0].Act != tc.act {
					t.Fatalf("%s: interval %d should hold the observation: %+v", tc.name, i, iv.Obs)
				}
			} else if len(iv.Obs) != 0 {
				t.Fatalf("%s: interval %d took the observation", tc.name, i)
			}
			if iv.Lo != lo || iv.Hi != hi {
				t.Fatalf("%s: interval %d spans [%v, %v], want [%v, %v]", tc.name, i, iv.Lo, iv.Hi, lo, hi)
			}
		}
	}
}
