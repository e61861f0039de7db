package score

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// countingEst is an analytic estimator that counts true evaluations.
type countingEst struct {
	alpha, gamma float64
	n            atomic.Int64
}

func (e *countingEst) Estimate(a core.Allocation) (float64, string, error) {
	e.n.Add(1)
	mem := 1.0
	if len(a) > 1 {
		mem = a[1]
	}
	return e.alpha/a[0] + e.gamma/mem, "p", nil
}

func ests(vals ...float64) ([]core.Estimator, []string) {
	out := make([]core.Estimator, len(vals))
	fps := make([]string, len(vals))
	for i, v := range vals {
		out[i] = &countingEst{alpha: v, gamma: v / 2}
		fps[i] = "w" + string(rune('a'+i))
	}
	return out, fps
}

func TestCacheHitOnIdenticalConfiguration(t *testing.T) {
	c := NewCache()
	es, fps := ests(40, 10)
	opts := core.Options{Delta: 0.1}
	a, err := c.Recommend("big", fps, es, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Recommend("big", fps, es, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical configuration should be served from the cache")
	}
	if h, m, r := c.Stats(); h != 1 || m != 1 || r != 1 {
		t.Fatalf("stats after hit: hits=%d misses=%d runs=%d", h, m, r)
	}
}

// Every key component must invalidate on change: profile, membership,
// member order, workload fingerprint, QoS, and each search option.
func TestCacheKeyComponentsInvalidate(t *testing.T) {
	es, fps := ests(40, 10)
	base := core.Options{Delta: 0.1}
	vary := []struct {
		name string
		call func(c *Cache) (*core.Result, error)
	}{
		{"profile", func(c *Cache) (*core.Result, error) {
			return c.Recommend("small", fps, es, base)
		}},
		{"fingerprint", func(c *Cache) (*core.Result, error) {
			return c.Recommend("big", []string{fps[0], "drifted"}, es, base)
		}},
		{"member order", func(c *Cache) (*core.Result, error) {
			return c.Recommend("big", []string{fps[1], fps[0]}, []core.Estimator{es[1], es[0]}, base)
		}},
		{"membership", func(c *Cache) (*core.Result, error) {
			return c.Recommend("big", fps[:1], es[:1], base)
		}},
		{"gains", func(c *Cache) (*core.Result, error) {
			o := base
			o.Gains = []float64{2, 1}
			return c.Recommend("big", fps, es, o)
		}},
		{"limits", func(c *Cache) (*core.Result, error) {
			o := base
			o.Limits = []float64{math.Inf(1), 2}
			return c.Recommend("big", fps, es, o)
		}},
		{"delta", func(c *Cache) (*core.Result, error) {
			o := base
			o.Delta = 0.05
			return c.Recommend("big", fps, es, o)
		}},
		{"minshare", func(c *Cache) (*core.Result, error) {
			o := base
			o.MinShare = 0.2
			return c.Recommend("big", fps, es, o)
		}},
		{"resources", func(c *Cache) (*core.Result, error) {
			o := base
			o.Resources = 1
			return c.Recommend("big", fps, es, o)
		}},
		{"maxiters", func(c *Cache) (*core.Result, error) {
			o := base
			o.MaxIters = 3
			return c.Recommend("big", fps, es, o)
		}},
	}
	for _, v := range vary {
		c := NewCache()
		if _, err := c.Recommend("big", fps, es, base); err != nil {
			t.Fatalf("%s: seed: %v", v.name, err)
		}
		if _, err := v.call(c); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if c.Hits() != 0 || c.Misses() != 2 {
			t.Fatalf("changing %s should miss: hits=%d misses=%d", v.name, c.Hits(), c.Misses())
		}
	}
}

// Parallelism and Ctx are not part of the identity: results are
// bit-identical across worker counts, so runs at different settings
// share one entry.
func TestCacheIgnoresParallelismAndCtx(t *testing.T) {
	c := NewCache()
	es, fps := ests(40, 10)
	seq := core.Options{Delta: 0.1, Parallelism: 1}
	par := core.Options{Delta: 0.1, Parallelism: 8, Ctx: context.Background()}
	a, err := c.Recommend("big", fps, es, seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Recommend("big", fps, es, par)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || c.Hits() != 1 {
		t.Fatalf("parallelism must not split entries: hits=%d", c.Hits())
	}
}

// Normalized options hit the entries of their explicit-default twins.
func TestCacheNormalizesDefaultOptions(t *testing.T) {
	c := NewCache()
	es, fps := ests(40, 10)
	if _, err := c.Recommend("", fps, es, core.Options{}); err != nil {
		t.Fatal(err)
	}
	explicit := core.Options{Resources: 2, Delta: 0.05, MinShare: 0.05, MaxIters: 400,
		Gains: []float64{1, 1}, Limits: []float64{math.Inf(1), math.Inf(1)}}
	if _, err := c.Recommend("", fps, es, explicit); err != nil {
		t.Fatal(err)
	}
	if c.Hits() != 1 {
		t.Fatalf("explicit defaults should hit the zero-value entry: hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCacheUncacheableAndNil(t *testing.T) {
	es, _ := ests(40, 10)
	opts := core.Options{Delta: 0.1}

	var nilCache *Cache
	if _, err := nilCache.Recommend("big", []string{"a", "b"}, es, opts); err != nil {
		t.Fatal(err)
	}
	if nilCache.Hits() != 0 || nilCache.Runs() != 0 || nilCache.Size() != 0 {
		t.Fatal("nil cache must be inert")
	}

	c := NewCache()
	for i := 0; i < 2; i++ {
		if _, err := c.Recommend("big", []string{"a", ""}, es, opts); err != nil {
			t.Fatal(err)
		}
	}
	if c.Hits() != 0 || c.Misses() != 0 || c.Runs() != 2 || c.Size() != 0 {
		t.Fatalf("empty fingerprint must bypass the cache: hits=%d misses=%d runs=%d len=%d",
			c.Hits(), c.Misses(), c.Runs(), c.Size())
	}
}

// Errors must not be cached: a failing configuration re-runs on retry.
func TestCacheDoesNotCacheErrors(t *testing.T) {
	c := NewCache()
	var calls atomic.Int64
	fail := core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
		calls.Add(1)
		return 0, "", context.Canceled
	})
	es := []core.Estimator{fail}
	for i := 0; i < 2; i++ {
		if _, err := c.Recommend("big", []string{"f"}, es, core.Options{Delta: 0.1}); err == nil {
			t.Fatal("expected error")
		}
	}
	if c.Runs() != 2 {
		t.Fatalf("failed runs must retry, got %d runs", c.Runs())
	}
	if c.Size() != 0 {
		t.Fatal("failed entry left in cache")
	}
}

// Concurrent identical requests singleflight onto one advisor run.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	ce := &countingEst{alpha: 30, gamma: 15}
	es := []core.Estimator{ce, ce}
	fps := []string{"x", "y"}
	var wg sync.WaitGroup
	results := make([]*core.Result, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := c.Recommend("big", fps, es, core.Options{Delta: 0.1})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = res
		}(g)
	}
	wg.Wait()
	if c.Runs() != 1 {
		t.Fatalf("singleflight violated: %d runs", c.Runs())
	}
	for _, r := range results[1:] {
		if r != results[0] {
			t.Fatal("concurrent requesters must share the one result")
		}
	}
}

// The cached result is the advisor's own: bit-identical to a direct run.
func TestCacheTransparent(t *testing.T) {
	es, fps := ests(55, 20)
	opts := core.Options{Delta: 0.1, Gains: []float64{2, 1}, Limits: []float64{math.Inf(1), 3}}
	direct, err := core.Recommend(es, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	cached, err := c.Recommend("p", fps, es, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Serve the entry once more to make sure the hit path returns it too.
	hit, err := c.Recommend("p", fps, es, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit != cached {
		t.Fatal("hit returned a different result")
	}
	if direct.TotalCost != cached.TotalCost || len(direct.Allocations) != len(cached.Allocations) {
		t.Fatalf("cache changed the result: %v vs %v", direct.TotalCost, cached.TotalCost)
	}
	for i := range direct.Allocations {
		for j := range direct.Allocations[i] {
			if direct.Allocations[i][j] != cached.Allocations[i][j] {
				t.Fatalf("allocation %d diverges: %v vs %v", i, direct.Allocations[i], cached.Allocations[i])
			}
		}
		if direct.Costs[i] != cached.Costs[i] || direct.DedicatedCosts[i] != cached.DedicatedCosts[i] {
			t.Fatalf("costs diverge at %d", i)
		}
	}
}

// RecommendEsts draws fingerprints from the estimators themselves.
func TestRecommendEstsFingerprints(t *testing.T) {
	c := NewCache()
	inner, _ := ests(40, 10)
	points := NewEstimates()
	wrapped := []core.Estimator{
		points.Estimator("big", "w0@1", inner[0]),
		points.Estimator("big", "w1@1", inner[1]),
	}
	if fp := FingerprintOf(wrapped[0]); fp != "w0@1" {
		t.Fatalf("FingerprintOf = %q", fp)
	}
	if fp := FingerprintOf(inner[0]); fp != "" {
		t.Fatalf("unfingerprinted estimator reported %q", fp)
	}
	opts := core.Options{Delta: 0.1}
	if _, err := c.RecommendEsts("big", wrapped, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecommendEsts("big", wrapped, opts); err != nil {
		t.Fatal(err)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("fingerprinted estimators should hit: hits=%d misses=%d", c.Hits(), c.Misses())
	}
	// A bare estimator in the mix makes the configuration uncacheable.
	mixed := []core.Estimator{wrapped[0], inner[1]}
	if _, err := c.RecommendEsts("big", mixed, opts); err != nil {
		t.Fatal(err)
	}
	if c.Runs() != 2 {
		t.Fatalf("uncacheable mix should run fresh: runs=%d", c.Runs())
	}
}
