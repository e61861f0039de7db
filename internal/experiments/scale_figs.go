package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
)

func init() {
	register("fleet-scale", FleetScale)
}

// The fleet-scale sweep: the cell architecture's headline measurement.
// It grows a synthetic heterogeneous fleet to 1000 machines / 10000
// tenants and measures, per size: the build period (every tenant
// arrives at once), a steady period under delta periods (every cell
// replays — near-zero work), the same steady period under full
// recompute (every cell marked dirty through SetOptions — the
// cache-served pre-delta cost),
// a single-tenant drift period under both modes (the delta-locality
// headline: one dirty cell vs every cell), and a 2% churn drift period.
// At the smaller sizes it also times the non-cellular (Cells: 0,
// full recompute) fleet — the quadratic baseline the cell partition is
// measured against; at 1000 machines that baseline is intractable by
// construction, which is the point.
//
// `make bench-record` appends the sweep to BENCH_fleet_scale.json — an
// append-only per-PR history (ScaleHistory below), one entry per
// recorded commit — and CI regenerates + validates the latest entry, so
// a PR that regresses the cell path to quadratic behaviour, loses delta
// locality (a one-tenant drift must dirty exactly one cell and beat the
// full recompute ≥5×), or breaks the schema, fails.

// ScaleSchema versions the BENCH_fleet_scale.json layout (the history
// document and the per-entry records alike); bump it when
// ScaleHistory/ScaleRecord/ScalePoint change shape so a stale committed
// file fails validation instead of parsing into zero values.
const ScaleSchema = "fleet-scale/v4"

// Sweep shape. Tests substitute smaller sweeps via fleetScaleRecord;
// the registered experiment, BenchmarkFleetScale, and cmd/benchrecord
// all use these.
var (
	// scaleSizes are the fleet sizes (machines) swept.
	scaleSizes = []int{10, 100, 1000}
	// scaleBaselineMax is the largest size at which the non-cellular
	// baseline is also timed.
	scaleBaselineMax = 100
	// scaleCellSize is Options.Cells for the cellular runs.
	scaleCellSize = 8
	// scaleTenantsPerMachine sets tenant count = this × machines.
	scaleTenantsPerMachine = 10
)

// ScalePoint is one fleet size's measurements.
type ScalePoint struct {
	Machines int `json:"machines"`
	Tenants  int `json:"tenants"`
	// Cells is the Options.Cells setting (max machines per cell).
	Cells int `json:"cells"`
	// TotalCells is how many cells the partitioner actually formed.
	TotalCells int `json:"total_cells"`
	// BuildNs, SteadyNs, and DriftNs are the wall-clock of the build
	// period (all tenants arrive), a steady period (nothing changed,
	// delta periods on: every cell replays), and the drift period (2%
	// of tenants churned).
	BuildNs  int64 `json:"build_ns"`
	SteadyNs int64 `json:"steady_ns"`
	DriftNs  int64 `json:"drift_ns"`
	// SteadyCells counts dirty cells during the steady period (0 when
	// delta tracking recognizes the period as drift-free).
	SteadyCells int `json:"steady_cells"`
	// SteadyFullNs is the same steady period re-timed under full
	// recompute: every cell recomputes, served by the score cache — the
	// pre-delta steady cost.
	SteadyFullNs int64 `json:"steady_full_ns"`
	// Drift1Ns times a period in which exactly one tenant drifted (its
	// fingerprint changed); Drift1Cells counts the cells that period
	// dirtied (the delta-locality claim: 1). Drift1FullNs is the same
	// one-tenant drift under full recompute — every cell recomputes even
	// though only one changed.
	Drift1Ns     int64 `json:"drift1_ns"`
	Drift1Cells  int   `json:"drift1_cells"`
	Drift1FullNs int64 `json:"drift1_full_ns"`
	// Drift10Ns times a correlated drift period (fleet-scale/v4): one
	// tenant in each of min(10, TotalCells) distinct cells drifts
	// simultaneously, and Drift10Cells counts the cells that period
	// dirtied — delta locality under correlated pressure: exactly one
	// cell per drifted tenant, never a fleet-wide recompute.
	Drift10Ns    int64 `json:"drift10_ns"`
	Drift10Cells int   `json:"drift10_cells"`
	// Steady*Ns and Drift*Ns percentiles (p50/p95/p99) summarize repeated
	// steady and one-tenant-drift delta periods, computed from the obs
	// period-latency histogram (fleet-scale/v3; absent — zero — in older
	// entries). Like the other wall-clock fields they are
	// environment-dependent.
	SteadyP50Ns int64 `json:"steady_p50_ns,omitempty"`
	SteadyP95Ns int64 `json:"steady_p95_ns,omitempty"`
	SteadyP99Ns int64 `json:"steady_p99_ns,omitempty"`
	DriftP50Ns  int64 `json:"drift_p50_ns,omitempty"`
	DriftP95Ns  int64 `json:"drift_p95_ns,omitempty"`
	DriftP99Ns  int64 `json:"drift_p99_ns,omitempty"`
	// SteadyRuns counts fresh advisor runs during the steady period
	// (deterministic; 0 when the period replays or the cache covers it).
	SteadyRuns int64 `json:"steady_runs"`
	// HitRate is cache hits / (hits + misses) during the full-recompute
	// steady period (the delta steady period consults no caches at all).
	HitRate float64 `json:"hit_rate"`
	// Migrations counts server moves during the drift period.
	Migrations int `json:"migrations"`
	// Baseline* time the same build + steady periods with Cells: 0 under
	// full recompute, present only when Baseline is true (small sizes).
	Baseline         bool  `json:"baseline"`
	BaselineBuildNs  int64 `json:"baseline_build_ns,omitempty"`
	BaselineSteadyNs int64 `json:"baseline_steady_ns,omitempty"`
}

// ScaleRecord is one full sweep (one history entry's measurements).
type ScaleRecord struct {
	Schema string `json:"schema"`
	// Go records the toolchain that produced the numbers (wall-clock
	// fields are environment-dependent; the counter fields are not).
	Go     string       `json:"go"`
	Points []ScalePoint `json:"points"`
}

// ScaleEntry is one recorded sweep in the history: the record plus the
// commit it was recorded at.
type ScaleEntry struct {
	Commit string `json:"commit"`
	Date   string `json:"date"`
	Note   string `json:"note,omitempty"`
	ScaleRecord
}

// ScaleHistory is the BENCH_fleet_scale.json document: an append-only
// list of per-PR sweep entries. `make bench-record` appends, CI
// validates the latest entry, and older entries stay for trend reading.
type ScaleHistory struct {
	Schema  string       `json:"schema"`
	Entries []ScaleEntry `json:"entries"`
}

// scaleFleetTenant builds one synthetic tenant for the scaling sweep and
// the fleet-cache figure: an analytic inverse-linear workload whose
// measured cost equals its estimate, so the managers converge quickly and
// the steady state is genuine, with deterministic per-index parameters
// (the drift period churns by substituting tenants at fresh indexes).
func scaleFleetTenant(i int, profiles []string, factors map[string]float64) fleet.Tenant {
	return scaleDriftedTenant(i, 0, profiles, factors)
}

// scaleDriftedTenant is scaleFleetTenant after ver in-place workload
// drifts: same tenant ID, bumped fingerprint, shifted cost parameters —
// what the delta tracker must notice as a single dirty tenant.
func scaleDriftedTenant(i, ver int, profiles []string, factors map[string]float64) fleet.Tenant {
	alpha := 10 + float64((i*37+ver*13)%60)
	gamma := 5 + float64((i*23+ver*7)%40)
	id := fmt.Sprintf("w%d", i)
	return fleet.Tenant{
		ID:             id,
		Fingerprint:    fmt.Sprintf("%s@%d", id, ver),
		AvgEstPerQuery: alpha + gamma,
		EstFor: func(profile string) core.Estimator {
			f := factors[profile]
			return core.EstimatorFunc(func(a core.Allocation) (float64, string, error) {
				return f * (alpha/a[0] + gamma/a[1]), "p", nil
			})
		},
		Measure: func(server int, a core.Allocation) (float64, error) {
			f := factors[profiles[server]]
			return f * (alpha/a[0] + gamma/a[1]), nil
		},
	}
}

// scaleProfiles alternates two machine profiles so every fleet is
// heterogeneous and the cell partitioner has real profile groups.
func scaleProfiles(machines int) ([]string, map[string]float64) {
	profiles := make([]string, machines)
	for s := range profiles {
		profiles[s] = "big"
		if s%2 == 1 {
			profiles[s] = "small"
		}
	}
	return profiles, map[string]float64{"big": 1, "small": 2}
}

// scaleOptions is the sweep's fleet configuration: coarse search (the
// tenants are analytic, so a coarse δ converges immediately), modest
// per-machine packing headroom, and the given cell size.
func scaleOptions(profiles []string, cells int) fleet.Options {
	return fleet.Options{
		Profiles:      profiles,
		MigrationCost: 0.1,
		Core: core.Options{
			Delta:       0.5,
			MinShare:    0.05,
			Parallelism: searchParallelism,
		},
		Cells: cells,
	}
}

// scaleLatencyBuckets is the percentile histograms' bucket layout:
// finer-grained than the served period-latency histogram (factor 1.25
// vs 2) so the interpolated p50/p95/p99 are tight, spanning 10µs to
// roughly 10s.
func scaleLatencyBuckets() []float64 {
	return obs.ExpBuckets(10e-6, 1.25, 64)
}

// histPercentilesNs reads the p50/p95/p99 of a latency histogram whose
// observations are seconds, in nanoseconds.
func histPercentilesNs(h *obs.Histogram) (p50, p95, p99 int64) {
	ns := func(q float64) int64 { return int64(h.Quantile(q) * 1e9) }
	return ns(0.50), ns(0.95), ns(0.99)
}

// runScalePoint measures one fleet size at the given cell setting:
// build, delta steady, one-tenant drift (delta on), full-recompute
// steady + one-tenant drift (every cell dirty), and 2% churn drift.
func runScalePoint(machines, tenantsPer, cells int) (p ScalePoint, err error) {
	profiles, factors := scaleProfiles(machines)
	n := tenantsPer * machines
	inputs := make([]fleet.Tenant, n)
	for i := range inputs {
		inputs[i] = scaleFleetTenant(i, profiles, factors)
	}
	op := scaleOptions(profiles, cells)
	orch, err := fleet.New(op)
	if err != nil {
		return p, err
	}
	p.Machines, p.Tenants, p.Cells = machines, n, cells
	p.TotalCells = orch.Cells()

	// settle runs drift-free periods until delta tracking recognizes
	// the fleet as unchanged (no dirty cells), i.e. every manager has
	// converged and every placement is a fixed point.
	settle := func(label string) error {
		for i := 0; i < 12; i++ {
			rep, err := orch.Period(inputs)
			if err != nil {
				return fmt.Errorf("%s settle (%d machines): %w", label, machines, err)
			}
			if len(rep.DirtyCells) == 0 {
				return nil
			}
		}
		return fmt.Errorf("%s settle (%d machines): fleet did not settle in 12 periods", label, machines)
	}

	start := time.Now()
	if _, err := orch.Period(inputs); err != nil {
		return p, fmt.Errorf("build period (%d machines): %w", machines, err)
	}
	p.BuildNs = time.Since(start).Nanoseconds()
	if err := settle("build"); err != nil {
		return p, err
	}

	// Delta steady period: every cell replays its previous outcome.
	_, _, runsBefore := orch.ScoreStats()
	start = time.Now()
	rep, err := orch.Period(inputs)
	if err != nil {
		return p, fmt.Errorf("steady period (%d machines): %w", machines, err)
	}
	p.SteadyNs = time.Since(start).Nanoseconds()
	p.SteadyCells = len(rep.DirtyCells)
	_, _, runs := orch.ScoreStats()
	p.SteadyRuns = runs - runsBefore

	// One-tenant drift, delta on: tenant w0's workload shifts in place.
	// Only its cell should recompute.
	inputs[0] = scaleDriftedTenant(0, 1, profiles, factors)
	start = time.Now()
	if rep, err = orch.Period(inputs); err != nil {
		return p, fmt.Errorf("drift1 period (%d machines): %w", machines, err)
	}
	p.Drift1Ns = time.Since(start).Nanoseconds()
	p.Drift1Cells = len(rep.DirtyCells)
	if err := settle("drift1"); err != nil {
		return p, err
	}

	// Full-recompute comparison: the same steady and one-tenant-drift
	// periods with every cell recomputing, served by the score cache
	// (this is where the cache hit rate is measured).
	if _, err := recomputePeriod(orch, op, inputs, "full warm period"); err != nil {
		return p, err
	}
	hitsBefore, missesBefore, _ := orch.ScoreStats()
	if p.SteadyFullNs, err = recomputePeriod(orch, op, inputs, "full steady period"); err != nil {
		return p, err
	}
	hits, misses, _ := orch.ScoreStats()
	if lookups := (hits - hitsBefore) + (misses - missesBefore); lookups > 0 {
		p.HitRate = float64(hits-hitsBefore) / float64(lookups)
	}
	inputs[0] = scaleDriftedTenant(0, 2, profiles, factors)
	if p.Drift1FullNs, err = recomputePeriod(orch, op, inputs, "full drift1 period"); err != nil {
		return p, err
	}
	if err := settle("full"); err != nil {
		return p, err
	}

	// Latency percentiles, measured after the single-shot comparisons
	// above so the extra periods cannot warm the caches under them: 9
	// drift-free periods and 9 further one-tenant drifts (each period
	// tenant w0's workload shifts again, dirtying exactly its cell),
	// accumulated into obs latency histograms (fine-grained buckets so
	// the interpolated quantiles are tight).
	steadyHist := obs.NewHistogram(scaleLatencyBuckets())
	for r := 0; r < 9; r++ {
		start = time.Now()
		if _, err := orch.Period(inputs); err != nil {
			return p, fmt.Errorf("steady percentile period (%d machines): %w", machines, err)
		}
		steadyHist.Observe(time.Since(start).Seconds())
	}
	p.SteadyP50Ns, p.SteadyP95Ns, p.SteadyP99Ns = histPercentilesNs(steadyHist)
	driftHist := obs.NewHistogram(scaleLatencyBuckets())
	for r := 0; r < 9; r++ {
		inputs[0] = scaleDriftedTenant(0, 10+r, profiles, factors)
		start = time.Now()
		if _, err := orch.Period(inputs); err != nil {
			return p, fmt.Errorf("drift percentile period (%d machines): %w", machines, err)
		}
		driftHist.Observe(time.Since(start).Seconds())
	}
	p.DriftP50Ns, p.DriftP95Ns, p.DriftP99Ns = histPercentilesNs(driftHist)
	if err := settle("drift percentile"); err != nil {
		return p, err
	}

	// Correlated drift (v4): one tenant in each of min(10, cells)
	// distinct cells drifts in the same period. A steady (replayed)
	// period first exposes the settled assignment so the drifted tenants
	// can be chosen one per cell; the drift period must then dirty
	// exactly those cells.
	rep, err = orch.Period(inputs)
	if err != nil {
		return p, fmt.Errorf("drift10 assignment period (%d machines): %w", machines, err)
	}
	target := 10
	if tc := p.TotalCells; tc < target {
		target = tc
	}
	seen := make(map[int]bool, target)
	var picked []int
	for i := range inputs {
		if len(picked) == target {
			break
		}
		c := orch.CellOf(rep.Assignment[inputs[i].ID])
		if c < 0 || seen[c] {
			continue
		}
		seen[c] = true
		picked = append(picked, i)
	}
	for j, i := range picked {
		inputs[i] = scaleDriftedTenant(i, 40+j, profiles, factors)
	}
	start = time.Now()
	if rep, err = orch.Period(inputs); err != nil {
		return p, fmt.Errorf("drift10 period (%d machines): %w", machines, err)
	}
	p.Drift10Ns = time.Since(start).Nanoseconds()
	p.Drift10Cells = len(rep.DirtyCells)
	if err := settle("drift10"); err != nil {
		return p, err
	}

	// Drift: 2% churn — every 50th tenant departs and a new one (fresh
	// ID, different workload) arrives in its place, so the affected
	// cells re-score, re-pack, and migrate survivors where that pays.
	for i := 0; i < n; i += 50 {
		inputs[i] = scaleFleetTenant(n+i, profiles, factors)
	}
	start = time.Now()
	rep, err = orch.Period(inputs)
	if err != nil {
		return p, fmt.Errorf("drift period (%d machines): %w", machines, err)
	}
	p.DriftNs = time.Since(start).Nanoseconds()
	p.Migrations = rep.Migrations
	return p, nil
}

// recomputePeriod runs one period with every cell recomputing and
// returns its wall-clock: SetOptions with the unchanged options first
// marks every cell dirty (untimed), so no cell replays. Errors name the
// period.
func recomputePeriod(orch *fleet.Orchestrator, op fleet.Options, inputs []fleet.Tenant, name string) (int64, error) {
	if err := orch.SetOptions(op); err != nil {
		return 0, fmt.Errorf("%s (%d machines): %w", name, orch.Servers(), err)
	}
	start := time.Now()
	if _, err := orch.Period(inputs); err != nil {
		return 0, fmt.Errorf("%s (%d machines): %w", name, orch.Servers(), err)
	}
	return time.Since(start).Nanoseconds(), nil
}

// runScaleBaseline times the non-cellular fleet under full recompute
// (the flat quadratic baseline): build plus one steady period.
func runScaleBaseline(machines, tenantsPer int) (buildNs, steadyNs int64, err error) {
	profiles, factors := scaleProfiles(machines)
	n := tenantsPer * machines
	inputs := make([]fleet.Tenant, n)
	for i := range inputs {
		inputs[i] = scaleFleetTenant(i, profiles, factors)
	}
	op := scaleOptions(profiles, 0)
	orch, err := fleet.New(op)
	if err != nil {
		return 0, 0, err
	}
	if buildNs, err = recomputePeriod(orch, op, inputs, "baseline build period"); err != nil {
		return 0, 0, err
	}
	// Warm until the caches fully cover a drift-free period (fresh-run
	// count stops moving), then time one steady period.
	for warm := 0; warm < 8; warm++ {
		_, _, before := orch.ScoreStats()
		if _, err := recomputePeriod(orch, op, inputs, "baseline warm period"); err != nil {
			return 0, 0, err
		}
		if _, _, after := orch.ScoreStats(); after == before {
			break
		}
	}
	steadyNs, err = recomputePeriod(orch, op, inputs, "baseline steady period")
	return buildNs, steadyNs, err
}

// fleetScaleRecord runs the sweep at the given shape; tests call it
// with reduced sizes.
func fleetScaleRecord(sizes []int, baselineMax, cellSize, tenantsPer int) (*ScaleRecord, error) {
	rec := &ScaleRecord{Schema: ScaleSchema, Go: runtime.Version()}
	for _, m := range sizes {
		p, err := runScalePoint(m, tenantsPer, cellSize)
		if err != nil {
			return nil, err
		}
		if m <= baselineMax {
			buildNs, steadyNs, err := runScaleBaseline(m, tenantsPer)
			if err != nil {
				return nil, fmt.Errorf("baseline: %w", err)
			}
			p.Baseline = true
			p.BaselineBuildNs = buildNs
			p.BaselineSteadyNs = steadyNs
		}
		rec.Points = append(rec.Points, p)
	}
	return rec, nil
}

// FleetScaleRecord runs the full sweep (10 → 1000 machines, 10× tenants)
// and returns the record cmd/benchrecord serializes.
func FleetScaleRecord() (*ScaleRecord, error) {
	return fleetScaleRecord(scaleSizes, scaleBaselineMax, scaleCellSize, scaleTenantsPerMachine)
}

// AppendScaleHistory appends entry to the history serialized in prev
// (which may be empty, a ScaleHistory, or — for migration — a bare
// pre-history ScaleRecord, imported as entry 0) and returns the new
// document.
func AppendScaleHistory(prev []byte, entry ScaleEntry) ([]byte, error) {
	hist := ScaleHistory{Schema: ScaleSchema}
	if len(prev) > 0 {
		var probe struct {
			Schema  string          `json:"schema"`
			Entries []ScaleEntry    `json:"entries"`
			Points  json.RawMessage `json:"points"`
		}
		if err := json.Unmarshal(prev, &probe); err != nil {
			return nil, fmt.Errorf("fleet-scale history: existing file unparseable: %w", err)
		}
		switch {
		case probe.Entries != nil:
			hist.Entries = probe.Entries
		case probe.Points != nil:
			// A pre-history single-record file: keep it as the first
			// entry so the trend is not lost.
			var rec ScaleRecord
			if err := json.Unmarshal(prev, &rec); err != nil {
				return nil, fmt.Errorf("fleet-scale history: legacy record unparseable: %w", err)
			}
			hist.Entries = []ScaleEntry{{
				Commit:      "(pre-history)",
				Note:        fmt.Sprintf("imported %s record", rec.Schema),
				ScaleRecord: rec,
			}}
		}
	}
	hist.Entries = append(hist.Entries, entry)
	out, err := json.MarshalIndent(&hist, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ValidateScaleHistory checks a serialized BENCH_fleet_scale.json: it
// must parse, carry the current schema version, and its LATEST entry
// must cover the full sweep (≥1000 machines, ≥10000 tenants) with sane
// measurements and delta locality (a one-tenant drift dirties exactly
// one cell and beats the full recompute ≥5× at the largest size).
// Older entries are historical — recorded by earlier code — and are
// only required to parse. CI runs this against the committed file so a
// stale or hand-mangled history fails the build.
func ValidateScaleHistory(data []byte) error {
	var hist ScaleHistory
	if err := json.Unmarshal(data, &hist); err != nil {
		return fmt.Errorf("fleet-scale history: unparseable: %w", err)
	}
	if hist.Schema != ScaleSchema {
		return fmt.Errorf("fleet-scale history: schema %q, want %q (stale file? run `make bench-record`)", hist.Schema, ScaleSchema)
	}
	if len(hist.Entries) == 0 {
		return fmt.Errorf("fleet-scale history: no entries")
	}
	latest := hist.Entries[len(hist.Entries)-1]
	if latest.Commit == "" {
		return fmt.Errorf("fleet-scale history: latest entry missing commit")
	}
	if latest.Date == "" {
		return fmt.Errorf("fleet-scale history: latest entry missing date")
	}
	if err := validateScaleRecord(&latest.ScaleRecord); err != nil {
		return fmt.Errorf("fleet-scale history: latest entry (%s): %w", latest.Commit, err)
	}
	// Cross-entry regression gate (v4): the newest sweep must not be more
	// than 25% slower than the previous recorded sweep at the headline
	// size, on the steady (replay) period or the one-tenant drift period.
	// The history is recorded on CI-comparable hardware, so a larger jump
	// means the hot path itself regressed, not the machine.
	if len(hist.Entries) >= 2 {
		prev := largestScalePoint(&hist.Entries[len(hist.Entries)-2].ScaleRecord)
		now := largestScalePoint(&latest.ScaleRecord)
		if prev != nil && now != nil && prev.Machines >= 1000 && now.Machines >= 1000 {
			if prev.SteadyNs > 0 && now.SteadyNs*4 > prev.SteadyNs*5 {
				return fmt.Errorf("fleet-scale history: steady_ns regressed >25%% at %d machines: %d → %d (previous entry %s)",
					now.Machines, prev.SteadyNs, now.SteadyNs, hist.Entries[len(hist.Entries)-2].Commit)
			}
			if prev.Drift1Ns > 0 && now.Drift1Ns*4 > prev.Drift1Ns*5 {
				return fmt.Errorf("fleet-scale history: drift1_ns regressed >25%% at %d machines: %d → %d (previous entry %s)",
					now.Machines, prev.Drift1Ns, now.Drift1Ns, hist.Entries[len(hist.Entries)-2].Commit)
			}
		}
	}
	return nil
}

// largestScalePoint returns the entry's largest-fleet point (nil when
// the record has none).
func largestScalePoint(rec *ScaleRecord) *ScalePoint {
	var max *ScalePoint
	for i := range rec.Points {
		if max == nil || rec.Points[i].Machines > max.Machines {
			max = &rec.Points[i]
		}
	}
	return max
}

// validateScaleRecord checks one sweep's measurements.
func validateScaleRecord(rec *ScaleRecord) error {
	if rec.Schema != ScaleSchema {
		return fmt.Errorf("schema %q, want %q", rec.Schema, ScaleSchema)
	}
	if rec.Go == "" {
		return fmt.Errorf("missing go version")
	}
	if len(rec.Points) == 0 {
		return fmt.Errorf("no points")
	}
	var max ScalePoint
	maxTenants := 0
	for _, p := range rec.Points {
		if p.Machines <= 0 || p.Tenants <= 0 {
			return fmt.Errorf("degenerate point %+v", p)
		}
		if p.BuildNs <= 0 || p.SteadyNs <= 0 || p.DriftNs <= 0 {
			return fmt.Errorf("non-positive timing in point %+v", p)
		}
		if p.SteadyFullNs <= 0 || p.Drift1Ns <= 0 || p.Drift1FullNs <= 0 {
			return fmt.Errorf("non-positive full/drift1 timing in point %+v", p)
		}
		if p.SteadyRuns < 0 || p.HitRate < 0 || p.HitRate > 1 || p.Migrations < 0 {
			return fmt.Errorf("counter out of range in point %+v", p)
		}
		// Delta locality: a drift-free period dirties nothing, a
		// one-tenant drift dirties exactly the tenant's cell.
		if p.SteadyCells != 0 {
			return fmt.Errorf("steady period dirtied %d cells in point %+v", p.SteadyCells, p)
		}
		if p.TotalCells <= 1 {
			return fmt.Errorf("cellular point formed %d cells %+v", p.TotalCells, p)
		}
		if p.Drift1Cells != 1 {
			return fmt.Errorf("one-tenant drift dirtied %d cells, want 1, in point %+v", p.Drift1Cells, p)
		}
		// v4: correlated drift stays local too — one dirty cell per
		// drifted tenant, one tenant in each of min(10, cells) cells.
		if p.Drift10Ns <= 0 {
			return fmt.Errorf("non-positive drift10 timing in point %+v", p)
		}
		if want := min(10, p.TotalCells); p.Drift10Cells != want {
			return fmt.Errorf("correlated drift dirtied %d cells, want %d, in point %+v", p.Drift10Cells, want, p)
		}
		if p.Baseline && (p.BaselineBuildNs <= 0 || p.BaselineSteadyNs <= 0) {
			return fmt.Errorf("baseline point missing timings %+v", p)
		}
		// v3: latency percentiles from the obs histogram, present and
		// ordered. (Older v2 entries in the history lack them, but only
		// the latest entry is validated here.)
		if p.SteadyP50Ns <= 0 || p.DriftP50Ns <= 0 {
			return fmt.Errorf("missing latency percentiles in point %+v", p)
		}
		if p.SteadyP50Ns > p.SteadyP95Ns || p.SteadyP95Ns > p.SteadyP99Ns {
			return fmt.Errorf("steady percentiles not monotone in point %+v", p)
		}
		if p.DriftP50Ns > p.DriftP95Ns || p.DriftP95Ns > p.DriftP99Ns {
			return fmt.Errorf("drift percentiles not monotone in point %+v", p)
		}
		if p.Machines > max.Machines {
			max = p
		}
		if p.Tenants > maxTenants {
			maxTenants = p.Tenants
		}
	}
	if max.Machines < 1000 || maxTenants < 10000 {
		return fmt.Errorf("sweep tops out at %d machines / %d tenants, want ≥1000 / ≥10000",
			max.Machines, maxTenants)
	}
	// The headline: at the largest size, recomputing every cell after a
	// one-tenant drift must cost ≥5× the delta period that recomputes
	// only the dirty cell.
	if max.Drift1FullNs < 5*max.Drift1Ns {
		return fmt.Errorf("delta locality regressed: drift1 full recompute %dns < 5× delta %dns at %d machines",
			max.Drift1FullNs, max.Drift1Ns, max.Machines)
	}
	return nil
}

// FleetScale is the registered experiment: the full sweep rendered as
// series over fleet size.
func FleetScale(env *Env) (*Result, error) {
	rec, err := FleetScaleRecord()
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fleet-scale",
		Title:  "Cell scale-out: period latency and advisor work vs fleet size",
		XLabel: "machines",
		YLabel: "period milliseconds / counters",
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var build, steady, steadyFull, drift1, drift1Full, drift10, drift, runs, hit, migs, baseBuild []float64
	var steadyP95, driftP95 []float64
	for _, p := range rec.Points {
		res.X = append(res.X, float64(p.Machines))
		build = append(build, ms(p.BuildNs))
		steady = append(steady, ms(p.SteadyNs))
		steadyP95 = append(steadyP95, ms(p.SteadyP95Ns))
		driftP95 = append(driftP95, ms(p.DriftP95Ns))
		steadyFull = append(steadyFull, ms(p.SteadyFullNs))
		drift1 = append(drift1, ms(p.Drift1Ns))
		drift1Full = append(drift1Full, ms(p.Drift1FullNs))
		drift10 = append(drift10, ms(p.Drift10Ns))
		drift = append(drift, ms(p.DriftNs))
		runs = append(runs, float64(p.SteadyRuns))
		hit = append(hit, p.HitRate)
		migs = append(migs, float64(p.Migrations))
		if p.Baseline {
			baseBuild = append(baseBuild, ms(p.BaselineBuildNs))
		}
	}
	res.AddSeries("build-ms", build)
	res.AddSeries("steady-ms", steady)
	res.AddSeries("steady-p95-ms", steadyP95)
	res.AddSeries("drift1-p95-ms", driftP95)
	res.AddSeries("steady-full-ms", steadyFull)
	res.AddSeries("drift1-ms", drift1)
	res.AddSeries("drift1-full-ms", drift1Full)
	res.AddSeries("drift10-ms", drift10)
	res.AddSeries("drift-ms", drift)
	res.AddSeries("steady-runs", runs)
	res.AddSeries("hit-rate", hit)
	res.AddSeries("migrations", migs)
	res.AddSeries("flat-build-ms", baseBuild)
	res.Note("cells of ≤%d machines; tenants = %d × machines; flat (Cells: 0) baseline timed through %d machines",
		scaleCellSize, scaleTenantsPerMachine, scaleBaselineMax)
	res.Note("steady/drift1 series are delta periods (replay); the -full variants recompute every cell")
	res.Note("drift10 is the correlated drift: one tenant in each of min(10, cells) distinct cells drifts in one period")
	res.Note("wall-clock series are environment-dependent; steady-runs, steady-cells, drift1-cells, drift10-cells, hit-rate, and migrations are deterministic")
	return res, nil
}
