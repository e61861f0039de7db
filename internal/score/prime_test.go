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
	nilCache.Prime([]EstimateEntry{{Profile: "p", Fingerprint: "k"}}) // must not panic

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
	if last.Profile != "prof" || last.Fingerprint != "t0@0" || last.Alloc != core.KeyOf(allocs[0]) {
		t.Fatalf("export must be LRU-ordered: last entry %+v, want the touched %v", last, allocs[0])
	}
	for _, en := range entries {
		if en.Seconds <= 0 || en.PlanSig != "sig" {
			t.Fatalf("exported entry %+v carries %v/%q", en, en.Seconds, en.PlanSig)
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
	// entries[0] is the least recently used estimate: allocs[1].
	clobber := entries[0]
	clobber.Seconds, clobber.PlanSig = -1, "clobber"
	dst.Prime([]EstimateEntry{clobber})
	if got, sig, _ := warm.Estimate(allocs[1]); got != want[1] || sig != "sig" {
		t.Fatalf("re-priming clobbered a resolved cell: %v %q", got, sig)
	}
}

// Export must skip estimates still being evaluated and evaluations that
// failed — neither holds a value worth carrying into a snapshot — and
// may run beside the in-flight evaluation.
func TestEstimateCacheExportSkipsUnresolvedAndErrored(t *testing.T) {
	c := NewEstimates()
	started, release := make(chan struct{}), make(chan struct{})
	est := c.Estimator("p", "fp", core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
		switch a[0] {
		case 0.25:
			close(started)
			<-release
		case 0.75:
			return 0, "", context.Canceled
		}
		return 1 / a[0], "s", nil
	}))
	if _, _, err := est.Estimate(core.Allocation{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := est.Estimate(core.Allocation{0.75, 0.25}); err == nil {
		t.Fatal("the failing evaluation must return its error")
	}
	done := make(chan error)
	go func() {
		_, _, err := est.Estimate(core.Allocation{0.25, 0.75})
		done <- err
	}()
	<-started
	if c.Size() != 2 {
		t.Fatalf("size %d, want the resolved and the in-flight estimate", c.Size())
	}
	entries := c.Export()
	if len(entries) != 1 || entries[0].Alloc != core.KeyOf(core.Allocation{0.5, 0.5}) {
		t.Fatalf("exported %+v, want only the resolved estimate", entries)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := c.Export(); len(got) != 2 {
		t.Fatalf("after the evaluation resolved, exported %d entries, want 2", len(got))
	}
}
