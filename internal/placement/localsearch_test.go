package placement

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/score"
)

// witnessTenants is a fixed scenario (found by seeded search) where
// greedy packing is provably suboptimal and one local-search change
// strictly improves the fleet objective.
func witnessTenants() []Tenant {
	params := [][2]float64{
		{75.27038818455688, 5.469445409114802},
		{66.02846548353097, 22.273137035446442},
		{26.760819913700313, 23.549882936629487},
		{55.997400576084715, 22.58205816593548},
	}
	tenants := make([]Tenant, len(params))
	for i, p := range params {
		tenants[i] = Tenant{
			Name:        fmt.Sprintf("t%d", i),
			Est:         synth(p[0], p[1], 0),
			Fingerprint: fmt.Sprintf("w%d@0", i),
		}
	}
	return tenants
}

func samePlacement(t *testing.T, label string, a, b *Placement) {
	t.Helper()
	if a.TotalCost != b.TotalCost || a.GreedyCost != b.GreedyCost ||
		a.LocalSearchMoves != b.LocalSearchMoves {
		t.Fatalf("%s: totals diverge: (%v,%v,%d) vs (%v,%v,%d)", label,
			a.TotalCost, a.GreedyCost, a.LocalSearchMoves,
			b.TotalCost, b.GreedyCost, b.LocalSearchMoves)
	}
	if len(a.Assignment) != len(b.Assignment) {
		t.Fatalf("%s: assignment lengths differ", label)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatalf("%s: tenant %d on server %d vs %d", label, i, a.Assignment[i], b.Assignment[i])
		}
		aa, ba := a.AllocationOf(i), b.AllocationOf(i)
		if len(aa) != len(ba) {
			t.Fatalf("%s: tenant %d allocation arity differs", label, i)
		}
		for j := range aa {
			if aa[j] != ba[j] {
				t.Fatalf("%s: tenant %d allocations diverge: %v vs %v", label, i, aa, ba)
			}
		}
		ac, ad := a.CostOf(i)
		bc, bd := b.CostOf(i)
		if ac != bc || ad != bd {
			t.Fatalf("%s: tenant %d costs diverge", label, i)
		}
	}
}

func TestLocalSearchImprovesGreedy(t *testing.T) {
	tenants := witnessTenants()
	opts := Options{Servers: 2, Core: core.Options{Delta: 0.1}}
	greedy, err := Place(tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.LocalSearchMoves != 0 || greedy.GreedyCost != greedy.TotalCost {
		t.Fatalf("disabled local search must be a no-op: %+v", greedy)
	}
	opts.LocalSearch = 5
	ls, err := Place(tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ls.GreedyCost != greedy.TotalCost {
		t.Fatalf("GreedyCost %v should record the pre-refinement objective %v",
			ls.GreedyCost, greedy.TotalCost)
	}
	if ls.TotalCost >= greedy.TotalCost {
		t.Fatalf("witness scenario should improve: greedy %v, local search %v",
			greedy.TotalCost, ls.TotalCost)
	}
	if ls.LocalSearchMoves == 0 {
		t.Fatal("an improving scenario must record its moves")
	}
	// The refined placement must still be internally consistent: every
	// machine's result covers exactly its tenants.
	for s, m := range ls.Machines {
		if len(m.Tenants) == 0 {
			if m.Result != nil {
				t.Fatalf("empty server %d keeps a result", s)
			}
			continue
		}
		if m.Result == nil || len(m.Result.Allocations) != len(m.Tenants) {
			t.Fatalf("server %d result inconsistent", s)
		}
		for _, ti := range m.Tenants {
			if ls.Assignment[ti] != s {
				t.Fatalf("tenant %d listed on server %d but assigned to %d", ti, s, ls.Assignment[ti])
			}
		}
	}
}

// Local search must never return a placement costlier than greedy, and
// must never make a tenant that met its degradation limit under greedy
// violate it — over randomized scenarios with random QoS limits.
func TestLocalSearchNeverWorseThanGreedy(t *testing.T) {
	violatorSet := func(p *Placement, tenants []Tenant) map[int]bool {
		out := map[int]bool{}
		for i := range tenants {
			if tenants[i].Limit < 1 {
				continue
			}
			if sec, deg := p.CostOf(i); sec > 0 && deg > tenants[i].Limit+1e-12 {
				out[i] = true
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(4)
		servers := 2 + rng.Intn(2)
		tenants := make([]Tenant, n)
		for i := range tenants {
			tenants[i] = Tenant{
				Name: fmt.Sprintf("t%d", i),
				Est:  synth(rng.Float64()*80+5, rng.Float64()*60, 0),
			}
			if rng.Intn(2) == 0 {
				// Some limits tight enough to bind, some unsatisfiable.
				tenants[i].Limit = 1 + rng.Float64()*2
			}
		}
		opts := Options{Servers: servers, Core: core.Options{Delta: 0.1}}
		greedy, err := Place(tenants, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.LocalSearch = 4
		ls, err := Place(tenants, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ls.TotalCost > greedy.TotalCost+1e-9 {
			t.Fatalf("trial %d: local search worsened the placement: %v > %v",
				trial, ls.TotalCost, greedy.TotalCost)
		}
		before := violatorSet(greedy, tenants)
		for v := range violatorSet(ls, tenants) {
			if !before[v] {
				t.Fatalf("trial %d: local search made tenant %d (%s) newly violate its limit",
					trial, v, tenants[v].Name)
			}
		}
	}
}

// Local search with pinned tenants refines only the free ones.
func TestLocalSearchRespectsPinned(t *testing.T) {
	tenants := witnessTenants()
	// Pin tenant 0 to server 1 (greedy alone would not choose this), let
	// the rest float.
	opts := Options{
		Servers:     2,
		Pinned:      []int{1, -1, -1, -1},
		LocalSearch: 5,
		Core:        core.Options{Delta: 0.1},
	}
	p, err := Place(tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Assignment[0] != 1 {
		t.Fatalf("pinned tenant moved to server %d", p.Assignment[0])
	}
}

// The refined placement is bit-identical across Parallelism settings and
// with the score cache on, off, or pre-warmed.
func TestLocalSearchParityAcrossParallelismAndCache(t *testing.T) {
	tenants := witnessTenants()
	base := Options{Servers: 2, LocalSearch: 5, Core: core.Options{Delta: 0.1}}
	ref, err := Place(tenants, base)
	if err != nil {
		t.Fatal(err)
	}
	warm := score.NewCache()
	for _, variant := range []struct {
		name        string
		parallelism int
		scores      *score.Cache
	}{
		{"p8", 8, nil},
		{"cache/p1", 1, score.NewCache()},
		{"cache/p8", 8, score.NewCache()},
		{"warm1", 1, warm},
		{"warm2", 8, warm}, // second run over the same cache: pure hits
	} {
		opts := base
		opts.Core.Parallelism = variant.parallelism
		opts.Scores = variant.scores
		got, err := Place(tenants, opts)
		if err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		samePlacement(t, variant.name, ref, got)
	}
	if warm.Hits() == 0 {
		t.Fatal("re-placing over a warmed cache should hit")
	}
}

// Re-running an identical placement over a shared score cache performs
// zero fresh advisor runs: every machine scoring — greedy candidates and
// local-search evaluations alike — is served from the cache.
func TestPlaceReusesScoreCacheAcrossRuns(t *testing.T) {
	tenants := witnessTenants()
	cache := score.NewCache()
	opts := Options{Servers: 2, LocalSearch: 5, Scores: cache, Core: core.Options{Delta: 0.1}}
	first, err := Place(tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	runsAfterFirst := cache.Runs()
	if runsAfterFirst == 0 {
		t.Fatal("first placement must run the advisor")
	}
	second, err := Place(tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Runs() != runsAfterFirst {
		t.Fatalf("identical re-placement ran %d fresh advisor runs", cache.Runs()-runsAfterFirst)
	}
	samePlacement(t, "re-run", first, second)

	// A drifted fingerprint (the workload changed) must re-run the
	// advisor for configurations containing that tenant — and only those.
	drifted := witnessTenants()
	drifted[2].Fingerprint = "w2@1"
	if _, err := Place(drifted, opts); err != nil {
		t.Fatal(err)
	}
	if cache.Runs() == runsAfterFirst {
		t.Fatal("drifted workload should have forced fresh advisor runs")
	}
}

// Tenants without fingerprints bypass the cache: correct results, no
// cache growth for their configurations.
func TestPlaceUnfingerprintedBypassesCache(t *testing.T) {
	tenants := witnessTenants()
	for i := range tenants {
		tenants[i].Fingerprint = ""
	}
	cache := score.NewCache()
	opts := Options{Servers: 2, Scores: cache, Core: core.Options{Delta: 0.1}}
	withCache, err := Place(tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Size() != 0 || cache.Hits() != 0 {
		t.Fatalf("unfingerprinted tenants must not populate the cache: size=%d hits=%d",
			cache.Size(), cache.Hits())
	}
	opts.Scores = nil
	without, err := Place(tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	samePlacement(t, "bypass", withCache, without)
}

func TestAdmissible(t *testing.T) {
	mk := func(alpha, gamma, limit float64) Tenant {
		return Tenant{Est: synth(alpha, gamma, 0), Limit: limit}
	}
	// One server, capacity 2 (MinShare 0.5). A resident plus a
	// tight-limited arrival: sharing degrades both ~2x, so a limit of 1.2
	// is unmeetable while 3.0 admits.
	opts := Options{
		Servers: 1,
		Pinned:  []int{0, -1},
		Core:    core.Options{Delta: 0.1, MinShare: 0.5},
	}
	tight := []Tenant{mk(50, 20, 0), mk(40, 20, 1.2)}
	seat, err := AdmitSeat(tight, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if seat != -1 {
		t.Fatalf("tight limit on a shared machine should be inadmissible, got seat %d", seat)
	}
	loose := []Tenant{mk(50, 20, 0), mk(40, 20, 3.0)}
	seat, err = AdmitSeat(loose, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if seat != 0 {
		t.Fatalf("loose limit should be admitted beside the resident, got seat %d", seat)
	}
	// A second (empty) server admits even the tight arrival: it gets a
	// dedicated machine (degradation 1).
	two := Options{
		Servers: 2,
		Pinned:  []int{0, -1},
		Core:    core.Options{Delta: 0.1, MinShare: 0.5},
	}
	seat, err = AdmitSeat(tight, two, 1)
	if err != nil {
		t.Fatal(err)
	}
	if seat != 1 {
		t.Fatalf("the empty machine should admit any limit, got seat %d", seat)
	}
	// No pinned map at all: every machine is empty, always admissible.
	seat, err = AdmitSeat(tight, Options{Servers: 1, Core: core.Options{Delta: 0.1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if seat != 0 {
		t.Fatalf("an empty fleet should admit, got seat %d", seat)
	}
	// Validation: a pinned arrival is a caller bug.
	if _, err := AdmitSeat(tight, Options{Servers: 1, Pinned: []int{0, 0}, Core: core.Options{Delta: 0.1}}, 1); err == nil {
		t.Fatal("pinned arrival should error")
	}
	if _, err := AdmitSeat(tight, opts, 9); err == nil {
		t.Fatal("out-of-range arrival should error")
	}
}

func TestCapacity(t *testing.T) {
	if c := Capacity(Options{Core: core.Options{MinShare: 0.5}}); c != 2 {
		t.Fatalf("MinShare 0.5 capacity = %d, want 2", c)
	}
	if c := Capacity(Options{Core: core.Options{Delta: 0.1}}); c != 10 {
		t.Fatalf("Delta 0.1 capacity = %d, want 10", c)
	}
	if c := Capacity(Options{}); c != 20 {
		t.Fatalf("default capacity = %d, want 20", c)
	}
}
