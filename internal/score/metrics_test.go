package score

// The accounting surface: what a cache reports through Snapshot,
// Stats.Plus and its Metrics mirrors must be exactly what its own
// atomic counters count.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func newMetrics(reg *obs.Registry, kind string) Metrics {
	return Metrics{
		Hits:      reg.Counter(kind+"_hits_total", "hits"),
		Misses:    reg.Counter(kind+"_misses_total", "misses"),
		Runs:      reg.Counter(kind+"_runs_total", "runs"),
		Evictions: reg.Counter(kind+"_evictions_total", "evictions"),
		Sweeps:    reg.Counter(kind+"_sweeps_total", "sweeps"),
	}
}

// mirrors reads a Metrics set back in Stats form (Size has no mirror).
func mirrors(m Metrics) Stats {
	return Stats{
		Hits:      int64(m.Hits.Value()),
		Misses:    int64(m.Misses.Value()),
		Runs:      int64(m.Runs.Value()),
		Evictions: int64(m.Evictions.Value()),
	}
}

func TestCacheSnapshotAndMetricsMirrorCounters(t *testing.T) {
	var nilCache *Cache
	nilCache.SetMetrics(Metrics{}) // must not panic
	if nilCache.Snapshot() != (Stats{}) {
		t.Fatal("nil cache must snapshot zeros")
	}
	met := newMetrics(obs.NewRegistry(), "score")
	c := NewCache()
	c.SetMetrics(met)
	opts := core.Options{Delta: 0.25}
	es, fps := ests(40, 10)
	for _, fp := range [][]string{fps, fps, {"", ""}} { // miss, hit, uncacheable run
		if _, err := c.Recommend("big", fp, es, opts); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Recommend("small", fps[:1], es[:1], opts); err != nil { // miss
		t.Fatal(err)
	}
	c.BeginGeneration()
	if _, err := c.Recommend("small", fps[:1], es[:1], opts); err != nil { // hit, touched
		t.Fatal(err)
	}
	if n := c.Sweep(1); n != 1 {
		t.Fatalf("sweep dropped %d, want the untouched big entry", n)
	}
	got := c.Snapshot()
	if want := (Stats{Hits: 2, Misses: 2, Runs: 3, Evictions: 1, Size: 1}); got != want {
		t.Fatalf("snapshot %+v, want %+v", got, want)
	}
	got.Size = 0
	if m := mirrors(met); m != got {
		t.Fatalf("mirrors %+v, counters %+v", m, got)
	}
	if met.Sweeps.Value() != 1 {
		t.Fatalf("sweeps mirror %d, want 1", met.Sweeps.Value())
	}
}

func TestEstimateCacheSnapshotAndMetricsMirrorCounters(t *testing.T) {
	var nilCache *EstimateCache
	nilCache.SetMetrics(Metrics{}) // must not panic
	if nilCache.Snapshot() != (Stats{}) {
		t.Fatal("nil cache must snapshot zeros")
	}
	met := newMetrics(obs.NewRegistry(), "estimate")
	c := NewEstimates()
	c.SetMetrics(met)
	est := c.Estimator("big", "t0@0", estFor(0, 0))
	for _, a := range []core.Allocation{{0.5, 0.5}, {0.5, 0.5}, {0.25, 0.75}} { // miss, hit, miss
		if _, _, err := est.Estimate(a); err != nil {
			t.Fatal(err)
		}
	}
	c.BeginGeneration()
	if _, _, err := est.Estimate(core.Allocation{0.25, 0.75}); err != nil { // hit, touched
		t.Fatal(err)
	}
	c.Sweep(1)
	got := c.Snapshot()
	if want := (Stats{Hits: 2, Misses: 2, Evictions: 1, Size: 1}); got != want {
		t.Fatalf("snapshot %+v, want %+v", got, want)
	}
	got.Size = 0
	if m := mirrors(met); m != got {
		t.Fatalf("mirrors %+v, counters %+v", m, got)
	}
	if met.Sweeps.Value() != 1 {
		t.Fatalf("sweeps mirror %d, want 1", met.Sweeps.Value())
	}
}

func TestStatsPlusAddsEveryField(t *testing.T) {
	a := Stats{Hits: 1, Misses: 2, Runs: 3, Evictions: 4, Size: 5}
	b := Stats{Hits: 10, Misses: 20, Runs: 30, Evictions: 40, Size: 50}
	if got, want := a.Plus(b), (Stats{Hits: 11, Misses: 22, Runs: 33, Evictions: 44, Size: 55}); got != want {
		t.Fatalf("%+v.Plus(%+v) = %+v, want %+v", a, b, got, want)
	}
}
