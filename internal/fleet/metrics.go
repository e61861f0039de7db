package fleet

// Fleet observability: the orchestrator's metric families and the
// period span tree. Everything in this file is strictly passive — a
// nil Options.Metrics registry yields zero-value instruments whose
// every method is a nil-receiver no-op (zero allocations on the hot
// path), and nothing recorded here ever feeds back into a placement,
// admission, or refinement decision, so reports are bit-identical with
// observability on or off and at any Parallelism.

import (
	"time"

	"repro/internal/dynmgmt"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/score"
)

// fleetMetrics is the orchestrator's handle set. The zero value (no
// registry) discards everything.
type fleetMetrics struct {
	periods        *obs.Counter
	periodDur      *obs.Histogram
	dirtyCells     *obs.Counter
	replayedCells  *obs.Counter
	migrations     *obs.Counter
	rebalanceMoves *obs.Counter
	arrivals       *obs.Counter
	departures     *obs.Counter
	qosViolations  *obs.Counter
	cellSplits     *obs.Counter
	cellMerges     *obs.Counter
	cellsGauge     *obs.Gauge
	rejections     [4]*obs.Counter // indexed by RejectReason; slot 0 unused
	maxDeg         *obs.Gauge
	totalCost      *obs.Gauge
	tenants        *obs.Gauge
	servers        *obs.Gauge
	scoreSize      *obs.Gauge
	estimateSize   *obs.Gauge

	score     score.Metrics
	estimates score.Metrics
	dyn       dynmgmt.Metrics
	placement placement.Metrics
}

// PeriodDurations exposes the period-latency histogram (nil without a
// registry) so callers — benchmarks, soaks — can read counts and
// quantiles without re-parsing the exposition text.
func (o *Orchestrator) PeriodDurations() *obs.Histogram { return o.met.periodDur }

// newFleetMetrics registers the fleet's metric families on r (nil r
// returns the all-discarding zero value). Gauges are refreshed at each
// period's commit rather than at scrape time, so a scrape never reads
// orchestrator state and can run concurrently with periods and
// topology edits.
func newFleetMetrics(r *obs.Registry) fleetMetrics {
	var m fleetMetrics
	if r == nil {
		return m
	}
	m.periods = r.Counter("vdesign_fleet_periods_total",
		"Monitoring periods completed.")
	m.periodDur = r.Histogram("vdesign_fleet_period_duration_seconds",
		"Wall-clock latency of completed fleet periods.",
		obs.ExpBuckets(100e-6, 2, 22)) // 100µs .. ~3.5min
	m.dirtyCells = r.Counter("vdesign_fleet_dirty_cells_total",
		"Cells recomputed because their inputs or outcome changed.")
	m.replayedCells = r.Counter("vdesign_fleet_replayed_cells_total",
		"Clean cells whose previous outcome was replayed.")
	m.migrations = r.Counter("vdesign_fleet_migrations_total",
		"Surviving tenants moved between servers (within-cell and pin-forced).")
	m.rebalanceMoves = r.Counter("vdesign_fleet_rebalance_moves_total",
		"Cross-cell moves adopted by the rebalancing pass.")
	m.arrivals = r.Counter("vdesign_fleet_arrivals_total",
		"Tenants admitted for their first period.")
	m.departures = r.Counter("vdesign_fleet_departures_total",
		"Tenants that left the fleet.")
	m.qosViolations = r.Counter("vdesign_fleet_qos_violations_total",
		"Tenant-periods past their degradation limit.")
	m.cellSplits = r.Counter("vdesign_fleet_cell_splits_total",
		"Cells split by the latency-driven auto-tuner.")
	m.cellMerges = r.Counter("vdesign_fleet_cell_merges_total",
		"Cell pairs merged by the latency-driven auto-tuner.")
	m.cellsGauge = r.Gauge("vdesign_fleet_cells",
		"Occupied placement cells at the last period's commit.")
	rej := r.CounterVec("vdesign_fleet_rejections_total",
		"Arrivals turned away by QoS admission control, by reason.", "reason")
	for _, reason := range []RejectReason{RejectCapacity, RejectQoS, RejectBatchConflict} {
		m.rejections[reason] = rej.With(reason.String())
	}
	m.maxDeg = r.Gauge("vdesign_fleet_max_degradation",
		"Worst per-tenant degradation of the last period.")
	m.totalCost = r.Gauge("vdesign_fleet_total_cost",
		"Gain-weighted fleet objective of the last period.")
	m.tenants = r.Gauge("vdesign_fleet_tenants",
		"Tenants placed in the last period.")
	m.servers = r.Gauge("vdesign_fleet_servers",
		"Servers in the fleet at the last period's commit.")
	m.scoreSize = r.Gauge("vdesign_score_cache_entries",
		"Machine-score cache entries, summed over cell shards.")
	m.estimateSize = r.Gauge("vdesign_estimate_cache_entries",
		"Estimate cache entries, summed over cell shards.")
	m.score = score.Metrics{
		Hits:      r.Counter("vdesign_score_cache_hits_total", "Machine-score cache hits."),
		Misses:    r.Counter("vdesign_score_cache_misses_total", "Machine-score cache misses."),
		Runs:      r.Counter("vdesign_score_advisor_runs_total", "Fresh advisor runs through the score cache."),
		Evictions: r.Counter("vdesign_score_cache_evictions_total", "Machine-score cache entries dropped by generation sweeps."),
		Sweeps:    r.Counter("vdesign_score_cache_sweeps_total", "Machine-score cache generation sweeps."),
	}
	m.estimates = score.Metrics{
		Hits:      r.Counter("vdesign_estimate_cache_hits_total", "Estimate cache hits."),
		Misses:    r.Counter("vdesign_estimate_cache_misses_total", "Estimate cache misses."),
		Evictions: r.Counter("vdesign_estimate_cache_evictions_total", "Estimate cache entries dropped by generation sweeps."),
		Sweeps:    r.Counter("vdesign_estimate_cache_sweeps_total", "Estimate cache generation sweeps."),
	}
	m.dyn = dynmgmt.Metrics{
		Rebuilds:     r.Counter("vdesign_dynmgmt_rebuilds_total", "Per-tenant cost-model rebuilds (major changes and error-guard fallbacks)."),
		Refinements:  r.Counter("vdesign_dynmgmt_refinements_total", "Applied Act/Est refinement steps."),
		Convergences: r.Counter("vdesign_dynmgmt_convergences_total", "Tenant-periods reaching the refinement stopping rule."),
	}
	m.placement = placement.Metrics{
		GreedySteps:      r.Counter("vdesign_placement_greedy_steps_total", "Candidate machine scorings in the greedy loop."),
		LocalSearchMoves: r.Counter("vdesign_placement_local_search_moves_total", "Applied local-search moves and swaps."),
	}
	return m
}

// commitMetrics records one successful period into the metric
// families; elapsed is zero when timing was off (no histogram).
func (o *Orchestrator) commitMetrics(rep *PeriodReport, elapsed time.Duration) {
	m := &o.met
	m.periods.Inc()
	if m.periodDur != nil {
		m.periodDur.Observe(elapsed.Seconds())
	}
	m.dirtyCells.Add(uint64(len(rep.DirtyCells)))
	m.replayedCells.Add(uint64(rep.ReplayedCells))
	m.migrations.Add(uint64(rep.Migrations))
	m.rebalanceMoves.Add(uint64(rep.RebalanceMoves))
	m.arrivals.Add(uint64(rep.Arrivals))
	m.departures.Add(uint64(rep.Departures))
	m.qosViolations.Add(uint64(rep.QoSViolations))
	for _, reason := range rep.RejectedReasons {
		if reason > 0 && int(reason) < len(m.rejections) {
			m.rejections[reason].Inc()
		}
	}
	if m.cellsGauge != nil {
		m.cellsGauge.Set(float64(o.occupiedCells()))
	}
	m.maxDeg.Set(rep.MaxDegradation)
	m.totalCost.Set(rep.TotalCost)
	m.tenants.Set(float64(len(rep.Assignment)))
	m.servers.Set(float64(len(o.machines)))
	if m.scoreSize != nil {
		m.scoreSize.Set(float64(o.scoreStats().Size))
		m.estimateSize.Set(float64(o.estimateStats().Size))
	}
}
