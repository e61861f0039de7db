package score

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// estFor builds a deterministic analytic estimator for a (tenant,
// version) pair; drifting a tenant bumps the version, changing both the
// estimator and its fingerprint together — the Fingerprinter contract.
func estFor(tenant, version int) core.Estimator {
	alpha := 10 + 7*float64(tenant) + 3*float64(version)
	gamma := 5 + 2*float64(tenant) + float64(version)
	return core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
		return alpha/a[0] + gamma/a[1], "p", nil
	})
}

func fpFor(tenant, version int) string {
	return fmt.Sprintf("t%d@%d", tenant, version)
}

// Generation sweep: entries untouched for K generations are dropped;
// entries the working set keeps touching survive any number of sweeps.
func TestCacheGenerationSweep(t *testing.T) {
	c := NewCache()
	opts := core.Options{Delta: 0.25}
	score := func(tenant int) {
		t.Helper()
		if _, err := c.Recommend("p", []string{fpFor(tenant, 0)},
			[]core.Estimator{estFor(tenant, 0)}, opts); err != nil {
			t.Fatal(err)
		}
	}
	score(0)
	score(1)
	// Periods touch only tenant 0; tenant 1 ages out after 2 sweeps.
	for period := 0; period < 2; period++ {
		c.BeginGeneration()
		score(0)
		if dropped := c.Sweep(2); period == 0 && dropped != 0 {
			t.Fatalf("first sweep dropped %d, entry is only 1 generation old", dropped)
		}
	}
	if c.Size() != 1 {
		t.Fatalf("stale entry should be swept: size=%d", c.Size())
	}
	score(0)
	if c.Hits() < 3 {
		t.Fatalf("live entry must survive sweeps: hits=%d", c.Hits())
	}
	score(1) // re-runs after the sweep, result is simply recomputed
	if c.Size() != 2 {
		t.Fatalf("size=%d", c.Size())
	}
	if c.Sweep(0) != 0 {
		t.Fatal("Sweep(0) must be a no-op")
	}
}

func TestEstimateCacheServesAndBounds(t *testing.T) {
	c := NewEstimates()
	calls := 0
	base := core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
		calls++
		return 42/a[0] + 7/a[1], "sig", nil
	})
	est := c.Estimator("prof", "t0@0", base)
	if fp := FingerprintOf(est); fp != "t0@0" {
		t.Fatalf("wrapper fingerprint %q", fp)
	}
	a := core.Allocation{0.5, 0.5}
	s1, sig, err := est.Estimate(a)
	if err != nil || sig != "sig" {
		t.Fatalf("estimate: %v %q", err, sig)
	}
	s2, _, _ := est.Estimate(a)
	if s1 != s2 || calls != 1 {
		t.Fatalf("second estimate must be served from cache: calls=%d", calls)
	}
	if c.Hits() != 1 || c.Misses() != 1 || c.Size() != 1 {
		t.Fatalf("stats: hits=%d misses=%d size=%d", c.Hits(), c.Misses(), c.Size())
	}
	// A second Estimator wrapper over the same identity shares the cells —
	// the cross-call reuse the cache exists for.
	again := c.Estimator("prof", "t0@0", base)
	if s3, _, _ := again.Estimate(a); s3 != s1 || calls != 1 {
		t.Fatalf("fresh wrapper must reuse cells: calls=%d", calls)
	}
	// A drifted fingerprint misses; distinct profiles miss.
	c.Estimator("prof", "t0@1", base).Estimate(a)
	c.Estimator("prof2", "t0@0", base).Estimate(a)
	if calls != 3 || c.Size() != 3 {
		t.Fatalf("drift/profile must re-evaluate: calls=%d size=%d", calls, c.Size())
	}
	// A sweep keeps what the new generation touched and drops the rest.
	c.BeginGeneration()
	est.Estimate(a)
	if c.Sweep(1) != 2 || c.Size() != 1 || c.Evictions() != 2 {
		t.Fatalf("sweep after touching one entry: size=%d evictions=%d", c.Size(), c.Evictions())
	}
	c.BeginGeneration()
	if c.Sweep(1) != 1 || c.Size() != 0 {
		t.Fatalf("sweep(1) after an idle generation should empty the cache: size=%d", c.Size())
	}
}

func TestEstimateCacheNilAndEmptyFingerprint(t *testing.T) {
	base := &countingEst{alpha: 10, gamma: 5}
	var nilCache *EstimateCache
	if est := nilCache.Estimator("p", "fp", base); est != core.Estimator(base) {
		t.Fatal("nil cache must return the estimator unchanged")
	}
	if nilCache.Size() != 0 || nilCache.Hits() != 0 || nilCache.Evictions() != 0 {
		t.Fatal("nil cache must be inert")
	}
	nilCache.BeginGeneration()
	if nilCache.Sweep(1) != 0 {
		t.Fatal("nil sweep must be a no-op")
	}
	c := NewEstimates()
	if est := c.Estimator("p", "", base); est != core.Estimator(base) {
		t.Fatal("empty fingerprint must return the estimator unchanged")
	}
}

func TestEstimateCacheDoesNotCacheErrors(t *testing.T) {
	c := NewEstimates()
	calls := 0
	bad := core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
		calls++
		return 0, "", fmt.Errorf("transient failure %d", calls)
	})
	est := c.Estimator("p", "fp", bad)
	a := core.Allocation{0.5, 0.5}
	for i := 0; i < 2; i++ {
		if _, _, err := est.Estimate(a); err == nil {
			t.Fatal("expected error")
		}
	}
	if calls != 2 {
		t.Fatalf("errored estimates must retry: calls=%d", calls)
	}
	if c.Size() != 0 {
		t.Fatalf("errored cell left in cache: size=%d", c.Size())
	}
}

// refModel is the property test's model of one tenant's workload state.
type refModel struct {
	version int
}

// TestCachePropertyRandomOps drives a swept cache through a long random
// interleaving of scorings, workload drifts (fingerprint changes),
// generations, and sweeps, checking that every result served — cached
// or fresh — is bit-identical to a direct core.Recommend over the same
// estimators: neither a changed fingerprint nor a sweep can ever surface
// a stale entry.
func TestCachePropertyRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewCache()
	opts := core.Options{Delta: 0.25}
	const tenants = 5
	models := make([]refModel, tenants)
	profiles := []string{"big", "small"}

	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // score a random 1- or 2-tenant configuration
			profile := profiles[rng.Intn(len(profiles))]
			members := []int{rng.Intn(tenants)}
			if rng.Intn(2) == 0 {
				other := rng.Intn(tenants)
				if other != members[0] {
					members = append(members, other)
				}
			}
			fps := make([]string, len(members))
			ests := make([]core.Estimator, len(members))
			for i, m := range members {
				fps[i] = fpFor(m, models[m].version)
				ests[i] = estFor(m, models[m].version)
			}
			got, err := c.Recommend(profile, fps, ests, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Recommend(ests, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.TotalCost != want.TotalCost {
				t.Fatalf("step %d: cached TotalCost %v != fresh %v (members %v, stale entry?)",
					step, got.TotalCost, want.TotalCost, fps)
			}
			for i := range want.Allocations {
				for j := range want.Allocations[i] {
					if got.Allocations[i][j] != want.Allocations[i][j] {
						t.Fatalf("step %d: allocation diverges for %v", step, fps)
					}
				}
			}
		case op < 7: // drift: a tenant's workload (and fingerprint) changes
			models[rng.Intn(tenants)].version++
		case op < 9:
			c.BeginGeneration()
		default:
			c.Sweep(1 + rng.Intn(3))
		}
	}
	if c.Hits() == 0 || c.Evictions() == 0 {
		t.Fatalf("property run should exercise hits and evictions: hits=%d evictions=%d",
			c.Hits(), c.Evictions())
	}
}

// The estimate cache under the same random-op property: values always
// match a direct evaluation.
func TestEstimateCachePropertyRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewEstimates()
	const tenants = 4
	models := make([]refModel, tenants)
	allocs := []core.Allocation{{0.25, 0.25}, {0.5, 0.5}, {0.75, 0.25}, {1, 1}}

	for step := 0; step < 800; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			m := rng.Intn(tenants)
			profile := []string{"big", "small"}[rng.Intn(2)]
			a := allocs[rng.Intn(len(allocs))]
			est := c.Estimator(profile, fpFor(m, models[m].version), estFor(m, models[m].version))
			got, _, err := est.Estimate(a)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := estFor(m, models[m].version).Estimate(a)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("step %d: cached estimate %v != fresh %v (stale entry?)", step, got, want)
			}
		case op < 8:
			models[rng.Intn(tenants)].version++
		default:
			c.BeginGeneration()
			c.Sweep(1 + rng.Intn(2))
		}
	}
	if c.Hits() == 0 || c.Evictions() == 0 {
		t.Fatalf("property run should exercise hits and evictions: hits=%d evictions=%d",
			c.Hits(), c.Evictions())
	}
}
