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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// estCell is one cached point estimate, resolved exactly once:
// concurrent requests for the same (profile, fingerprint, allocation)
// block on the single in-flight evaluation. done marks a cell whose
// once body has run — the snapshot exporter's way to tell a resolved
// value from a cell still being (or never) evaluated.
type estCell struct {
	once sync.Once
	sec  float64
	sig  string
	err  error
	done bool
}

// EstimateCache memoizes single what-if estimates by (machine profile,
// workload fingerprint, allocation), persisting across Place calls and
// monitoring periods. A nil *EstimateCache is valid and caches nothing.
// Safe for concurrent use.
//
// Like the score Cache it is unbounded by default and offers the same
// bounding policy — BeginGeneration/Sweep — with the same guarantee:
// eviction can cost re-evaluations, never change a value.
type EstimateCache struct {
	mu sync.Mutex
	b  bounded[*estCell]

	hits   atomic.Int64
	misses atomic.Int64

	met Metrics // optional observability mirrors (nil-safe, see SetMetrics)
}

// NewEstimates creates an empty, unbounded estimate cache.
func NewEstimates() *EstimateCache {
	c := &EstimateCache{}
	c.b.init()
	return c
}

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
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.b.m)
}

// Evictions counts entries dropped by a sweep.
func (c *EstimateCache) Evictions() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.b.evictions
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
	c.mu.Lock()
	defer c.mu.Unlock()
	c.b.beginGeneration()
}

// Sweep evicts every entry untouched for k or more generations and
// returns how many were dropped (0 for k ≤ 0).
func (c *EstimateCache) Sweep(k int) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	n := c.b.sweep(k)
	c.mu.Unlock()
	c.met.Sweeps.Inc()
	if n > 0 {
		c.met.Evictions.Add(uint64(n))
	}
	return n
}

// estKeyPrefix length-prefixes the identity fields so distinct
// (profile, fingerprint) pairs can never collide by concatenation.
func estKeyPrefix(profile, fp string) string {
	var sb strings.Builder
	sb.Grow(len(profile) + len(fp) + 16)
	sb.WriteString(strconv.Itoa(len(profile)))
	sb.WriteByte('#')
	sb.WriteString(profile)
	sb.WriteByte('|')
	sb.WriteString(strconv.Itoa(len(fp)))
	sb.WriteByte('#')
	sb.WriteString(fp)
	sb.WriteByte('|')
	return sb.String()
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
	return &cachedEstimator{c: c, est: est, prefix: estKeyPrefix(profile, fp), fp: fp}
}

// cachedEstimator serves one (profile, fingerprint)'s estimates from the
// shared cache.
type cachedEstimator struct {
	c      *EstimateCache
	est    core.Estimator
	prefix string
	fp     string
}

var (
	_ core.Estimator           = (*cachedEstimator)(nil)
	_ core.ConcurrentEstimator = (*cachedEstimator)(nil)
	_ Fingerprinter            = (*cachedEstimator)(nil)
)

func (e *cachedEstimator) ScoreFingerprint() string { return e.fp }

// cell returns (inserting if needed) the cache cell for one allocation.
func (e *cachedEstimator) cell(a core.Allocation) (*estCell, string) {
	k := e.prefix + core.AllocKey(a)
	e.c.mu.Lock()
	cell, ok := e.c.b.get(k)
	if !ok {
		cell = &estCell{}
		e.c.b.put(k, cell)
	}
	e.c.mu.Unlock()
	if ok {
		e.c.hits.Add(1)
		e.c.met.Hits.Inc()
	} else {
		e.c.misses.Add(1)
		e.c.met.Misses.Inc()
	}
	return cell, k
}

// resolve finishes a cell: failed evaluations are removed so transient
// errors (context cancellation) never stick, matching the score Cache.
func (e *cachedEstimator) resolve(cell *estCell, k string) (float64, string, error) {
	if cell.err != nil {
		e.c.mu.Lock()
		if n := e.c.b.lookup(k); n != nil && n.val == cell {
			e.c.b.remove(n)
		}
		e.c.mu.Unlock()
	}
	return cell.sec, cell.sig, cell.err
}

func (e *cachedEstimator) Estimate(a core.Allocation) (float64, string, error) {
	cell, k := e.cell(a)
	cell.once.Do(func() {
		cell.sec, cell.sig, cell.err = e.est.Estimate(a)
		cell.done = true
	})
	return e.resolve(cell, k)
}

func (e *cachedEstimator) EstimateConcurrent(ctx context.Context, workers int, a core.Allocation) (float64, string, error) {
	cell, k := e.cell(a)
	cell.once.Do(func() {
		cell.sec, cell.sig, cell.err = core.EstimateWith(ctx, e.est, workers, a)
		cell.done = true
	})
	return e.resolve(cell, k)
}

// EstimateEntry is one resolved point estimate in a cache's export: the
// full cache key (profile, fingerprint, allocation — see estKeyPrefix)
// and the value it resolved to. Estimates are deterministic in the key,
// so priming another cache with an exported entry reproduces exactly
// what that cache would have computed.
type EstimateEntry struct {
	Key     string
	Seconds float64
	PlanSig string
}

// Export returns the cache's resolved entries in least- to
// most-recently-used order, so Prime inserting them in slice order
// rebuilds the same recency order. Unresolved (in-flight) and errored cells
// are skipped. Call it between periods: it must not race a concurrent
// evaluation.
func (c *EstimateCache) Export() []EstimateEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []EstimateEntry
	for n := c.b.tail; n != nil; n = n.prev {
		cell := n.val
		if !cell.done || cell.err != nil {
			continue
		}
		out = append(out, EstimateEntry{Key: n.key, Seconds: cell.sec, PlanSig: cell.sig})
	}
	return out
}

// Prime inserts exported entries as already-resolved cells, warming a
// fresh cache (a restored orchestrator's) without re-evaluating
// anything. Keys already present are left untouched; priming counts
// neither hits nor misses.
func (c *EstimateCache) Prime(entries []EstimateEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, en := range entries {
		if _, ok := c.b.m[en.Key]; ok {
			continue
		}
		cell := &estCell{sec: en.Seconds, sig: en.PlanSig, done: true}
		cell.once.Do(func() {})
		c.b.put(en.Key, cell)
	}
}
