// The estimate cache: point-estimate memoization below the machine-score
// cache. The score Cache memoizes whole advisor runs, so it only helps
// when an entire machine configuration recurs. Individual estimates recur
// far more often: the same tenant's dedicated-machine cost anchors the
// greedy ordering and the degradation constraint of every Place call, and
// a fresh advisor run over a novel configuration revisits grid points
// costed by runs over other configurations sharing a member. Estimates
// are deterministic in (machine profile, workload fingerprint,
// allocation) — exactly the Fingerprinter contract — so they are cached
// across Place calls and monitoring periods under that key.
package score

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/memo"
)

// estKey identifies one point estimate. It is a comparable value — the
// string fields share the caller's memory — so a lookup builds no key.
type estKey struct {
	profile, fp string
	a           core.AllocKey
}

// estVal is one resolved point estimate.
type estVal struct {
	sec float64
	sig string
}

// EstimateCache memoizes single what-if estimates by (machine profile,
// workload fingerprint, allocation), persisting across Place calls and
// monitoring periods. A nil *EstimateCache is valid and caches nothing.
// Safe for concurrent use: concurrent requests for the same estimate
// block on the single in-flight evaluation.
//
// Like the score Cache it is unbounded by default and offers the same
// bounding policy — BeginGeneration/Sweep — with the same guarantee:
// eviction can cost re-evaluations, never change a value.
type EstimateCache struct {
	t memo.Table[estKey, estVal]

	hits   atomic.Int64
	misses atomic.Int64

	met Metrics // optional observability mirrors (nil-safe, see SetMetrics)
}

// NewEstimates creates an empty, unbounded estimate cache.
func NewEstimates() *EstimateCache { return &EstimateCache{} }

// Hits counts estimates served from the cache; Misses counts estimates
// evaluated fresh through it.
func (c *EstimateCache) Hits() int64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// Misses counts estimates evaluated fresh through the cache.
func (c *EstimateCache) Misses() int64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

// Size reports how many point estimates are cached.
func (c *EstimateCache) Size() int {
	if c == nil {
		return 0
	}
	return c.t.Len()
}

// Evictions counts entries dropped by a sweep.
func (c *EstimateCache) Evictions() int64 {
	if c == nil {
		return 0
	}
	return c.t.Evictions()
}

// Snapshot captures the cache's counters (all zero for a nil cache).
// Estimate caches run no advisor, so Runs is always 0.
func (c *EstimateCache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.Hits(),
		Misses:    c.Misses(),
		Evictions: c.Evictions(),
		Size:      c.Size(),
	}
}

// BeginGeneration starts a new generation (see Cache.BeginGeneration).
func (c *EstimateCache) BeginGeneration() {
	if c == nil {
		return
	}
	c.t.BeginGeneration()
}

// Sweep evicts every entry untouched for k or more generations and
// returns how many were dropped (0 for k ≤ 0).
func (c *EstimateCache) Sweep(k int) int {
	if c == nil {
		return 0
	}
	n := c.t.Sweep(k)
	c.met.Sweeps.Inc()
	if n > 0 {
		c.met.Evictions.Add(uint64(n))
	}
	return n
}

// Estimator wraps est so its evaluations are served through the cache
// under (profile, fp). The fingerprint carries the usual contract: it
// must change whenever the estimator's behaviour changes, so a drifted
// workload's new fingerprint misses cleanly past the old entries (which
// age out by sweep). A nil cache or empty fingerprint returns est
// unchanged. The wrapper implements Fingerprinter (reporting fp), so it
// composes directly with the score Cache's RecommendEsts path.
func (c *EstimateCache) Estimator(profile, fp string, est core.Estimator) core.Estimator {
	if c == nil || fp == "" || est == nil {
		return est
	}
	return &cachedEstimator{c: c, est: est, profile: profile, fp: fp}
}

// cachedEstimator serves one (profile, fingerprint)'s estimates from the
// shared cache.
type cachedEstimator struct {
	c           *EstimateCache
	est         core.Estimator
	profile, fp string
}

var (
	_ core.Estimator           = (*cachedEstimator)(nil)
	_ core.ConcurrentEstimator = (*cachedEstimator)(nil)
	_ Fingerprinter            = (*cachedEstimator)(nil)
)

func (e *cachedEstimator) ScoreFingerprint() string { return e.fp }

// Estimate is EstimateConcurrent on one worker, which calls est.Estimate.
func (e *cachedEstimator) Estimate(a core.Allocation) (float64, string, error) {
	return e.EstimateConcurrent(context.Background(), 1, a)
}

// EstimateConcurrent serves one allocation's estimate, evaluating it on
// a miss. Failed evaluations are not kept, so transient errors (context
// cancellation) never stick, matching the score Cache.
func (e *cachedEstimator) EstimateConcurrent(ctx context.Context, workers int, a core.Allocation) (float64, string, error) {
	v, hit, err := e.c.t.Get(estKey{e.profile, e.fp, core.KeyOf(a)}, func() (estVal, error) {
		sec, sig, err := core.EstimateWith(ctx, e.est, workers, a)
		return estVal{sec, sig}, err
	})
	if hit {
		e.c.hits.Add(1)
		e.c.met.Hits.Inc()
	} else {
		e.c.misses.Add(1)
		e.c.met.Misses.Inc()
	}
	return v.sec, v.sig, err
}

// EstimateEntry is one resolved point estimate in a cache's export: its
// key (machine profile, workload fingerprint, quantized allocation) and
// the value it resolved to. Estimates are deterministic in the key, so
// priming another cache with an exported entry reproduces exactly what
// that cache would have computed.
type EstimateEntry struct {
	Profile     string
	Fingerprint string
	Alloc       core.AllocKey
	Seconds     float64
	PlanSig     string
}

// Export returns the cache's resolved entries in least- to
// most-recently-used order, so Prime inserting them in slice order
// rebuilds the same recency order. Entries still being evaluated are
// skipped, and failed evaluations are never kept, so Export may run
// beside concurrent evaluations.
func (c *EstimateCache) Export() []EstimateEntry {
	if c == nil {
		return nil
	}
	var out []EstimateEntry
	c.t.Walk(func(k estKey, v estVal) {
		out = append(out, EstimateEntry{Profile: k.profile, Fingerprint: k.fp, Alloc: k.a, Seconds: v.sec, PlanSig: v.sig})
	})
	return out
}

// Prime inserts exported entries as already-resolved estimates, warming
// a fresh cache (a restored orchestrator's) without re-evaluating
// anything. Keys already present are left untouched; priming counts
// neither hits nor misses.
func (c *EstimateCache) Prime(entries []EstimateEntry) {
	if c == nil {
		return
	}
	for _, en := range entries {
		c.t.Put(estKey{en.Profile, en.Fingerprint, en.Alloc}, estVal{en.Seconds, en.PlanSig})
	}
}
