package score

// Export/Prime: the estimate cache's snapshot surface. Export captures
// every resolved point estimate in LRU order; Prime warms a fresh cache
// (a restored orchestrator's) with them so nothing is re-evaluated.
// Priming changes work, never values — primed cells must serve exactly
// what the exporting cache computed.

import (
	"context"
	"testing"

	"repro/internal/core"
)

func TestEstimateCacheExportPrimeRoundTrip(t *testing.T) {
	var nilCache *EstimateCache
	if nilCache.Export() != nil {
		t.Fatal("nil cache must export nil")
	}
	nilCache.Prime([]EstimateEntry{{Key: "k"}}) // must not panic

	src := NewEstimates()
	calls := 0
	base := core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
		calls++
		return 42/a[0] + 7/a[1], "sig", nil
	})
	est := src.Estimator("prof", "t0@0", base)
	allocs := []core.Allocation{{0.25, 0.75}, {0.5, 0.5}, {0.75, 0.25}}
	want := make([]float64, len(allocs))
	for i, a := range allocs {
		var err error
		if want[i], _, err = est.Estimate(a); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the first allocation: it becomes the MRU, so a faithful
	// export (LRU first) must list it last.
	est.Estimate(allocs[0])

	entries := src.Export()
	if len(entries) != len(allocs) {
		t.Fatalf("exported %d entries, want %d", len(entries), len(allocs))
	}
	last := entries[len(entries)-1]
	if mru := estKeyPrefix("prof", "t0@0") + core.AllocKey(allocs[0]); last.Key != mru {
		t.Fatalf("export must be LRU-ordered: last key %q, want the touched %q", last.Key, mru)
	}
	for _, en := range entries {
		if en.Seconds <= 0 || en.PlanSig != "sig" {
			t.Fatalf("exported entry %q carries %v/%q", en.Key, en.Seconds, en.PlanSig)
		}
	}

	// Prime a fresh cache: size matches, counters stay untouched, and
	// the primed cells serve without a single underlying evaluation.
	dst := NewEstimates()
	dst.Prime(entries)
	if dst.Size() != len(entries) || dst.Hits() != 0 || dst.Misses() != 0 {
		t.Fatalf("primed cache: size=%d hits=%d misses=%d", dst.Size(), dst.Hits(), dst.Misses())
	}
	// A faithful round trip: before any serve reorders the LRU, the
	// primed cache exports exactly what went in.
	again := dst.Export()
	if len(again) != len(entries) {
		t.Fatalf("re-export: %d entries, want %d", len(again), len(entries))
	}
	for i := range entries {
		if again[i] != entries[i] {
			t.Fatalf("re-export entry %d: %+v, want %+v", i, again[i], entries[i])
		}
	}
	calls = 0
	warm := dst.Estimator("prof", "t0@0", base)
	for i, a := range allocs {
		got, sig, err := warm.Estimate(a)
		if err != nil || got != want[i] || sig != "sig" {
			t.Fatalf("primed estimate for %v: %v %q %v, want %v", a, got, sig, err, want[i])
		}
	}
	// The concurrent entry point shares the same cells.
	if got, _, err := warm.(core.ConcurrentEstimator).EstimateConcurrent(context.Background(), 2, allocs[1]); err != nil || got != want[1] {
		t.Fatalf("concurrent primed estimate: %v %v", got, err)
	}
	if calls != 0 {
		t.Fatalf("primed cells must serve without evaluating: %d calls", calls)
	}
	if dst.Hits() != int64(len(allocs))+1 {
		t.Fatalf("primed serves count as hits: %d", dst.Hits())
	}
	// Priming over an existing key leaves the resolved value alone.
	dst.Prime([]EstimateEntry{{Key: entries[0].Key, Seconds: -1, PlanSig: "clobber"}})
	if got, _, _ := warm.Estimate(allocs[1]); got != want[1] {
		t.Fatalf("re-priming clobbered a resolved cell: %v", got)
	}
}

// Export must skip cells that never resolved (still in flight) and
// cells that resolved to an error — neither holds a value worth
// carrying into a snapshot.
func TestEstimateCacheExportSkipsUnresolvedAndErrored(t *testing.T) {
	c := NewEstimates()
	est := c.Estimator("p", "fp", core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
		return 1 / a[0], "s", nil
	}))
	if _, _, err := est.Estimate(core.Allocation{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.b.put("in-flight", &estCell{})
	errored := &estCell{done: true, err: context.Canceled}
	errored.once.Do(func() {})
	c.b.put("errored", errored)
	c.mu.Unlock()
	entries := c.Export()
	if len(entries) != 1 {
		t.Fatalf("exported %d entries, want only the resolved one: %+v", len(entries), entries)
	}
}
