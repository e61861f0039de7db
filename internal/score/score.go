// Package score is the incremental machine-scoring service shared by the
// placement enumerator, the cluster layer, and the fleet orchestrator: a
// deterministic cache of per-machine advisor runs.
//
// Every layer above internal/core ultimately prices a candidate "these
// tenants share this machine" configuration by running core.Recommend
// over the tenants' estimators. At fleet scale that makes each monitoring
// period O(machines × candidate placements) full advisor runs even when
// most machines' tenant sets did not change between periods. Advisor runs
// are deterministic: the result depends only on the machine's hardware
// profile, the (ordered) tenant set with its workloads and QoS settings,
// and the enumerator's search options — notably NOT on Parallelism, which
// the repository guarantees bit-identical results across. The cache keys
// on exactly those inputs, so re-scoring an unchanged machine is a map
// lookup and only genuinely new configurations run the advisor.
//
// Tenant workloads are identified by caller-supplied fingerprints: an
// opaque string that must change whenever the estimator's behaviour
// changes (a workload drifts, a refined cost model observes a new
// measurement) and must differ between tenants. Layers that cannot
// fingerprint a member simply bypass the cache for that configuration —
// correctness never depends on a hit.
//
// Results returned from the cache are shared pointers and must be treated
// as immutable, the repository-wide convention for *core.Result.
package score

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Fingerprinter is implemented by estimators that carry a stable identity
// for the workload (and cost-model state) they estimate: equal
// fingerprints on the same machine profile must imply bit-identical
// Estimate results. The refinement layer's models and the estimate
// cache's wrapper (EstimateCache.Estimator) implement it.
type Fingerprinter interface {
	ScoreFingerprint() string
}

// FingerprintOf returns the estimator's fingerprint, or "" when it does
// not carry one (such an estimator is uncacheable).
func FingerprintOf(est core.Estimator) string {
	if f, ok := est.(Fingerprinter); ok {
		return f.ScoreFingerprint()
	}
	return ""
}

// entry is one cached advisor run, resolved exactly once: concurrent
// requests for the same configuration block on the single in-flight run
// instead of duplicating it.
type entry struct {
	once sync.Once
	res  *core.Result
	err  error
}

// Cache memoizes core.Recommend results across machine scorings. A nil
// *Cache is valid and simply runs everything fresh, so callers can thread
// an optional cache without branching. Safe for concurrent use.
//
// By default entries are never evicted and the cache grows with the
// number of distinct configurations ever scored. Long-lived callers bound
// it with BeginGeneration/Sweep, which drop entries untouched for K
// generations (the fleet orchestrator advances one generation per
// monitoring period). Eviction is a memory policy only: a dropped
// configuration re-runs the advisor on its next request and — advisor
// runs being deterministic — recomputes the identical result, so
// eviction can cost re-runs but never change one.
type Cache struct {
	mu sync.Mutex
	b  bounded[*entry]

	hits   atomic.Int64
	misses atomic.Int64
	runs   atomic.Int64

	met Metrics // optional observability mirrors (nil-safe, see SetMetrics)
}

// NewCache creates an empty, unbounded machine-score cache.
func NewCache() *Cache {
	c := &Cache{}
	c.b.init()
	return c
}

// Hits counts lookups served from the cache.
func (c *Cache) Hits() int64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// Misses counts cacheable lookups that had to run the advisor.
func (c *Cache) Misses() int64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

// Runs counts fresh core.Recommend executions performed through the cache
// (cacheable misses plus uncacheable requests) — the counter behind the
// "a steady-state fleet period performs zero fresh advisor runs on
// unchanged machines" guarantee: take the count before and after a period
// and assert the delta.
func (c *Cache) Runs() int64 {
	if c == nil {
		return 0
	}
	return c.runs.Load()
}

// Stats returns (hits, misses, runs) in one call.
func (c *Cache) Stats() (hits, misses, runs int64) {
	return c.Hits(), c.Misses(), c.Runs()
}

// Stats is a point-in-time snapshot of one cache's counters, the unit of
// cell-scoped accounting: a sharded caller (the fleet orchestrator keeps
// one cache per placement cell) snapshots each shard and adds them up.
type Stats struct {
	Hits, Misses, Runs, Evictions int64
	Size                          int
}

// Plus returns the element-wise sum — aggregation across cache shards.
func (s Stats) Plus(o Stats) Stats {
	return Stats{
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Runs:      s.Runs + o.Runs,
		Evictions: s.Evictions + o.Evictions,
		Size:      s.Size + o.Size,
	}
}

// Snapshot captures the cache's counters (all zero for a nil cache).
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.Hits(),
		Misses:    c.Misses(),
		Runs:      c.Runs(),
		Evictions: c.Evictions(),
		Size:      c.Size(),
	}
}

// Size reports how many distinct machine configurations are cached.
func (c *Cache) Size() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.b.m)
}

// Evictions counts entries dropped by a sweep.
func (c *Cache) Evictions() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.b.evictions
}

// BeginGeneration starts a new generation: entries served or inserted
// from now on are stamped with it. Periodic callers (the fleet advances
// one generation per monitoring period) pair it with Sweep to drop
// entries their working set no longer touches.
func (c *Cache) BeginGeneration() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.b.beginGeneration()
}

// Sweep evicts every entry untouched for k or more generations and
// returns how many were dropped (0 for k ≤ 0). A sweep can cost re-runs
// but never changes a result.
func (c *Cache) Sweep(k int) int {
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

// fmtFloat renders a float64 into its shortest round-trip form — distinct
// values get distinct key fragments, equal values always the same one.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// keyOf folds everything a core.Recommend result depends on into a
// deterministic cache key: the machine profile, the ordered member
// fingerprints with their QoS settings, and the search options — which
// the caller must already have passed through core's own
// Options.Normalize, the single defaulting routine, so a zero Delta and
// an explicit 0.05 hit the same entry without this package re-deriving
// any constant. Parallelism and Ctx are deliberately excluded — results
// are bit-identical across Parallelism by the enumerator's parity
// guarantee, so runs at different worker counts share entries.
func keyOf(profile string, fps []string, opts core.Options) string {
	n := len(fps)
	var sb strings.Builder
	sb.Grow(64 + 24*n)
	sb.WriteString(strconv.Itoa(len(profile)))
	sb.WriteByte('#')
	sb.WriteString(profile)
	sb.WriteByte('|')
	sb.WriteString(strconv.Itoa(opts.Resources))
	sb.WriteByte(',')
	sb.WriteString(fmtFloat(opts.Delta))
	sb.WriteByte(',')
	sb.WriteString(fmtFloat(opts.MinShare))
	sb.WriteByte(',')
	sb.WriteString(strconv.Itoa(opts.MaxIters))
	for i, fp := range fps {
		sb.WriteByte('|')
		sb.WriteString(strconv.Itoa(len(fp)))
		sb.WriteByte('#')
		sb.WriteString(fp)
		sb.WriteByte(',')
		sb.WriteString(fmtFloat(opts.Gains[i]))
		sb.WriteByte(',')
		sb.WriteString(fmtFloat(opts.Limits[i]))
	}
	return sb.String()
}

// Recommend returns the advisor result for the machine configuration,
// serving it from the cache when an identical configuration was scored
// before. fps carries one fingerprint per estimator (the member order
// matters: the enumerator's tie-breaks are index-dependent, so permuted
// member lists are distinct configurations). Any empty fingerprint makes
// the configuration uncacheable: the advisor runs fresh (counted in
// Runs) and nothing is stored. Errors are never cached — a failed
// configuration re-runs on the next request, so a cancelled context
// cannot poison the cache.
func (c *Cache) Recommend(profile string, fps []string, ests []core.Estimator, opts core.Options) (*core.Result, error) {
	if c == nil {
		return core.Recommend(ests, opts)
	}
	cacheable := len(fps) == len(ests)
	if cacheable {
		for _, fp := range fps {
			if fp == "" {
				cacheable = false
				break
			}
		}
	}
	if !cacheable {
		c.runs.Add(1)
		c.met.Runs.Inc()
		return core.Recommend(ests, opts)
	}
	norm, err := opts.Normalize(len(ests))
	if err != nil {
		// Invalid options cannot be keyed; run direct so the caller gets
		// core's own validation error.
		c.runs.Add(1)
		c.met.Runs.Inc()
		return core.Recommend(ests, opts)
	}
	k := keyOf(profile, fps, norm)
	c.mu.Lock()
	e, ok := c.b.get(k)
	if !ok {
		e = &entry{}
		c.b.put(k, e)
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		c.met.Hits.Inc()
	} else {
		c.misses.Add(1)
		c.met.Misses.Inc()
	}
	e.once.Do(func() {
		c.runs.Add(1)
		c.met.Runs.Inc()
		e.res, e.err = core.Recommend(ests, opts)
	})
	if e.err != nil {
		// Do not cache failures: deterministic errors simply re-run, and
		// transient ones (context cancellation mid-search) must not stick.
		// The identity check guards against a sweep-and-replacement
		// racing in while this run was in flight.
		c.mu.Lock()
		if n := c.b.lookup(k); n != nil && n.val == e {
			c.b.remove(n)
		}
		c.mu.Unlock()
	}
	return e.res, e.err
}

// RecommendEsts is Recommend with fingerprints drawn from the estimators
// themselves (via the Fingerprinter interface): the path used by dynamic
// managers, whose estimator basis per tenant alternates between refined
// cost models and fresh optimizer-backed estimators.
func (c *Cache) RecommendEsts(profile string, ests []core.Estimator, opts core.Options) (*core.Result, error) {
	if c == nil {
		return core.Recommend(ests, opts)
	}
	fps := make([]string, len(ests))
	for i, est := range ests {
		fps[i] = FingerprintOf(est)
	}
	return c.Recommend(profile, fps, ests, opts)
}
