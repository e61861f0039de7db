package score

import "repro/internal/obs"

// Metrics is the optional set of observability counters a cache feeds.
// All fields are nil-safe obs counters, so the zero Metrics (the
// default) makes every report a no-op with zero allocations — the
// cache's own atomic Stats counters remain the source of truth either
// way, and nothing here ever feeds back into a cached result.
//
// Counters are atomic, so one Metrics value is deliberately shared
// across cache shards (the fleet registers one family per cache kind
// and points every per-cell shard at it).
type Metrics struct {
	// Hits and Misses mirror the cache's hit/miss counters.
	Hits, Misses *obs.Counter
	// Runs counts fresh advisor executions (score Cache only).
	Runs *obs.Counter
	// Evictions counts entries dropped by sweeps.
	Evictions *obs.Counter
	// Sweeps counts Sweep passes.
	Sweeps *obs.Counter
}

// SetMetrics attaches observability counters to the cache. Call it
// before the cache is shared across goroutines (the fleet does so at
// construction); it is not synchronized against in-flight lookups.
func (c *Cache) SetMetrics(m Metrics) {
	if c != nil {
		c.met = m
	}
}

// SetMetrics attaches observability counters to the estimate cache
// under the same contract as Cache.SetMetrics.
func (c *EstimateCache) SetMetrics(m Metrics) {
	if c != nil {
		c.met = m
	}
}
