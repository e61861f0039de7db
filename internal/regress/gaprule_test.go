package regress_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/refine"
)

// gapModel fits a one-resource refine.Model, whose interval fits this
// package computes, to two plans with a gap between them: plan "ext" over
// [0.1, 0.4] with cost 10/x + 5 and plan "mem" over [0.6, 0.9] with cost
// 2/x + 1. At x = 0.5, inside the gap, ext predicts 25 and mem 5. The
// model is past its first-iteration scale-all (§5.1), so Observe applies
// the gap rule.
func gapModel(t *testing.T) *refine.Model {
	t.Helper()
	var samples []core.Sample
	for _, x := range []float64{0.1, 0.2, 0.3, 0.4} {
		samples = append(samples, core.Sample{Alloc: core.Allocation{x}, Seconds: 10/x + 5, PlanSig: "ext"})
	}
	for _, x := range []float64{0.6, 0.7, 0.8, 0.9} {
		samples = append(samples, core.Sample{Alloc: core.Allocation{x}, Seconds: 2/x + 1, PlanSig: "mem"})
	}
	md, err := refine.NewModel(samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(md.Intervals) != 2 || md.Intervals[0].Plan != "ext" || md.Intervals[1].Plan != "mem" {
		t.Fatalf("want intervals ext then mem: %s", md)
	}
	for i, want := range []float64{25, 5} {
		if got := md.Intervals[i].Eval(core.Allocation{0.5}); math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("interval %d predicts %v at 0.5, want %v", i, got, want)
		}
	}
	md.FirstScaled = true
	return md
}

// checkObserved asserts that only interval pick holds the one
// observation and that the intervals span want.
func checkObserved(t *testing.T, md *refine.Model, pick int, act float64, want [2][2]float64) {
	t.Helper()
	for i, iv := range md.Intervals {
		if i == pick {
			if len(iv.Obs) != 1 || iv.Obs[0].Act != act {
				t.Fatalf("interval %d should hold the observation %v: %+v", i, act, iv.Obs)
			}
		} else if len(iv.Obs) != 0 {
			t.Fatalf("interval %d took the observation: %+v", i, iv.Obs)
		}
		if iv.Lo != want[i][0] || iv.Hi != want[i][1] {
			t.Fatalf("interval %d spans [%v, %v], want [%v, %v]", i, iv.Lo, iv.Hi, want[i][0], want[i][1])
		}
	}
}

// In the gap, the observation goes to the neighbour whose prediction is
// closer to the actual cost, and that neighbour extends to the level.
func TestAssignObservationPicksCloserPrediction(t *testing.T) {
	// An actual of 6 is nearer mem's 5: mem's Lo extends to 0.5.
	md := gapModel(t)
	if _, err := md.Observe(core.Allocation{0.5}, 6); err != nil {
		t.Fatal(err)
	}
	checkObserved(t, md, 1, 6, [2][2]float64{{0.1, 0.4}, {0.5, 0.9}})

	// An actual of 24 is nearer ext's 25: ext's Hi extends to 0.5.
	md = gapModel(t)
	if _, err := md.Observe(core.Allocation{0.5}, 24); err != nil {
		t.Fatal(err)
	}
	checkObserved(t, md, 0, 24, [2][2]float64{{0.1, 0.5}, {0.6, 0.9}})
}

// Inside an interval the observation stays with it, however far the
// actual cost is from its prediction.
func TestAssignObservationInsideInterval(t *testing.T) {
	md := gapModel(t)
	if _, err := md.Observe(core.Allocation{0.3}, 123); err != nil {
		t.Fatal(err)
	}
	checkObserved(t, md, 0, 123, [2][2]float64{{0.1, 0.4}, {0.6, 0.9}})
}
