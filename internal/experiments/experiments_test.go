package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"
)

var (
	testEnvOnce sync.Once
	testEnv     *Env
	testEnvErr  error
)

func sharedEnv(t *testing.T) *Env {
	t.Helper()
	testEnvOnce.Do(func() { testEnv, testEnvErr = NewEnv() })
	if testEnvErr != nil {
		t.Fatalf("NewEnv: %v", testEnvErr)
	}
	return testEnv
}

func TestRegistryCoversDesignIndex(t *testing.T) {
	want := []string{
		"fig02", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25",
		"fig26", "fig27", "fig28", "fig29", "fig30", "fig31", "fig32",
		"fig33", "fig34", "fig35", "fig36", "sec7.2",
		"ablation-cache", "ablation-delta", "ablation-calibgrid",
		"fleet-migration", "fleet-cache", "fleet-scale",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
}

// The dynamic-fleet sweep's headline shape: penalty 0 re-places every
// period and so migrates at least once, the largest migration penalty
// performs zero migrations, no penalty migrates more than penalty 0, and
// a well-priced finite penalty achieves an actual (measured) cost no
// worse than thrashing at 0 and strictly below freezing the placement at
// the largest penalty. The strict comparisons fail when the penalty
// stops mattering (every penalty reading the same).
func TestFleetMigrationSweepShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := Run("fleet-migration", env)
	if err != nil {
		t.Fatal(err)
	}
	var acts, migs []float64
	for _, s := range res.Series {
		switch s.Name {
		case "total-act-cost":
			acts = s.Y
		case "migrations":
			migs = s.Y
		}
	}
	if len(acts) != len(res.X) || len(migs) != len(res.X) {
		t.Fatalf("ragged series: %+v", res.Series)
	}
	last := len(migs) - 1
	if migs[0] < 1 {
		t.Fatalf("penalty 0 never migrated (%v), but it re-places every period", migs[0])
	}
	if migs[last] != 0 {
		t.Fatalf("largest penalty migrated %v times, want 0", migs[last])
	}
	for i := 1; i < len(migs); i++ {
		if migs[i] > migs[0] {
			t.Fatalf("penalty %v migrates more (%v) than penalty 0 (%v)", res.X[i], migs[i], migs[0])
		}
	}
	for i, a := range acts {
		if a <= 0 {
			t.Fatalf("penalty %v: non-positive actual cost %v", res.X[i], a)
		}
	}
	// The hysteresis sweet spot: some finite nonzero penalty ties or
	// beats thrashing and strictly beats freezing on measured cost.
	best := math.Inf(1)
	for i := 1; i < last; i++ {
		if acts[i] < best {
			best = acts[i]
		}
	}
	if best > acts[0]+1e-9 || best >= acts[last] {
		t.Fatalf("no finite penalty beats both extremes: mid-best %v vs thrash %v / frozen %v",
			best, acts[0], acts[last])
	}
}

func TestRunUnknownID(t *testing.T) {
	env := sharedEnv(t)
	if _, err := Run("nope", env); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestFig02ShapeHolds(t *testing.T) {
	env := sharedEnv(t)
	res, err := Run("fig02", env)
	if err != nil {
		t.Fatal(err)
	}
	// Series: default(s), recommended(s), cpu-share, mem-share.
	cpu := res.Series[2].Y
	if cpu[1] <= cpu[0] {
		t.Fatalf("DB2/Q18 should win CPU: %v", cpu)
	}
	def := res.Series[0].Y
	rec := res.Series[1].Y
	if def[0]+def[1] <= rec[0]+rec[1] {
		t.Fatalf("overall improvement missing: default %v vs recommended %v", def, rec)
	}
	if !strings.Contains(res.Render(), "fig02") {
		t.Fatal("render should include the id")
	}
}

func TestFig05LinearAndMemoryIndependent(t *testing.T) {
	env := sharedEnv(t)
	res, err := Run("fig05", env)
	if err != nil {
		t.Fatal(err)
	}
	// mem=50% series must match the linear fit closely.
	got := res.Series[0].Y
	fit := res.Series[2].Y
	for i := range got {
		if d := (got[i] - fit[i]) / fit[i]; d > 0.01 || d < -0.01 {
			t.Fatalf("point %d off the line: %v vs %v", i, got[i], fit[i])
		}
	}
}

func TestFig12SharesMonotoneInK(t *testing.T) {
	env := sharedEnv(t)
	res, err := Run("fig12", env)
	if err != nil {
		t.Fatal(err)
	}
	shares := res.Series[0].Y
	for i := 1; i < len(shares); i++ {
		if shares[i] < shares[i-1]-1e-9 {
			t.Fatalf("W2's CPU share should not shrink as k grows: %v", shares)
		}
	}
	if shares[0] >= 0.5 || shares[len(shares)-1] <= 0.5 {
		t.Fatalf("crossover shape missing: %v", shares)
	}
}

func TestFig19LimitsEnforcedWhenSatisfiable(t *testing.T) {
	env := sharedEnv(t)
	res, err := Run("fig19", env)
	if err != nil {
		t.Fatal(err)
	}
	w9 := res.Series[0].Y
	// L9 values 2.5, 3.5, 4.5 (indexes 1..3) must be met.
	for i, l9 := range []float64{2.5, 3.5, 4.5} {
		if w9[i+1] > l9+1e-6 {
			t.Fatalf("L9=%v violated: degradation %v", l9, w9[i+1])
		}
	}
}

func TestFig30RefinementRecovers(t *testing.T) {
	env := sharedEnv(t)
	res, err := Run("fig30", env)
	if err != nil {
		t.Fatal(err)
	}
	before := res.Series[0].Y
	after := res.Series[1].Y
	anyNegativeBefore := false
	for i := range before {
		if before[i] < -1e-6 {
			anyNegativeBefore = true
		}
		if after[i] < before[i]-1e-6 {
			t.Fatalf("refinement made N=%d worse: %v -> %v", i+2, before[i], after[i])
		}
	}
	if !anyNegativeBefore {
		t.Fatal("expected negative improvements before refinement (the §7.8 premise)")
	}
}

func TestSurfaceSmooth(t *testing.T) {
	env := sharedEnv(t)
	for _, id := range []string{"fig09", "fig10"} {
		res, err := Run(id, env)
		if err != nil {
			t.Fatal(err)
		}
		if rough := surfaceRoughness(res); rough > 3 {
			t.Errorf("%s: surface too rough for greedy search: %d wiggles", id, rough)
		}
	}
}

func TestResultRender(t *testing.T) {
	r := &Result{ID: "x", Title: "T", XLabel: "k", X: []float64{1, 2}}
	r.AddSeries("s", []float64{3, 4})
	r.Note("note %d", 7)
	out := r.Render()
	for _, want := range []string{"== x: T ==", "k", "s", "note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// The incremental-scoring figure's headline shape: a steady-state period
// performs zero fresh advisor runs at every fleet size, while the
// uncached equivalent grows with the fleet.
func TestFleetScaleCacheShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := Run("fleet-cache", env)
	if err != nil {
		t.Fatal(err)
	}
	var cached, uncached []float64
	for _, s := range res.Series {
		switch s.Name {
		case "steady-runs-cached":
			cached = s.Y
		case "steady-runs-uncached":
			uncached = s.Y
		}
	}
	if len(cached) != len(res.X) || len(uncached) != len(res.X) {
		t.Fatalf("ragged series: %+v", res.Series)
	}
	for i := range res.X {
		if cached[i] != 0 {
			t.Fatalf("fleet of %v: steady period ran %v fresh advisor runs, want 0", res.X[i], cached[i])
		}
		if uncached[i] <= 0 {
			t.Fatalf("fleet of %v: uncached equivalent should be positive, got %v", res.X[i], uncached[i])
		}
	}
	for i := 1; i < len(uncached); i++ {
		if uncached[i] < uncached[i-1] {
			t.Fatalf("uncached advisor runs should grow with fleet size: %v", uncached)
		}
	}
}
