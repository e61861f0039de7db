package fleet

// The adaptive period scheduler's feedback state and controller. Two
// consumers read each cell's observed compute latency (the wall-clock
// duration of its periodCell runs, the same quantity the period span
// tree and the latency histogram record):
//
//   - The work-stealing dispatcher (Period's fan-out) sorts the dirty
//     cells longest-expected-first by EWMA before handing them to the
//     worker pool, so a straggler cell starts first and no longer gates
//     the period. Dispatch order changes only scheduling, never a
//     result: outcomes merge in fixed cell order regardless.
//
//   - The cell-size auto-tuner (Options.AutoTuneCells) keeps each
//     cell's p95 compute latency inside [CellP95Target/4, CellP95Target]
//     by editing the partition at period commit: a cell observed above
//     the target splits into two profile-balanced halves; a pair of
//     cells both observed below the band's floor merges back (at most
//     one merge per period, and only when the combined size respects
//     the Options.Cells ceiling). Splits and merges reuse the
//     incremental partition-edit machinery AddServer/RemoveServer
//     established: server indexes and tenant assignments are untouched
//     (tenants travel with their machines), only the touched cells are
//     dirtied for the next period, and every untouched cell keeps
//     replaying bit-identically.
//
// Why the feedback loop preserves determinism: timing feeds (a) the
// order dirty cells are dispatched in, which the fixed-order merge
// makes invisible, and (b) which partition the NEXT period runs under.
// For any fixed partition, reports remain a deterministic function of
// the inputs — the invariant every parity test pins — and with
// AutoTuneCells off the partition never changes on its own, so the
// pre-adaptive orchestrator is reproduced exactly.
//
// One caveat across DIFFERENT partitions: a partition edit changes no
// report content (assignments, allocations, degradations, per-machine
// results are identical tenant for tenant), but the fleet-level cost
// rollups are summed cell-by-cell in the merge, so an edited partition
// regroups those float additions and the totals can differ from an
// unedited fleet's in the last ULP.

import (
	"math"
	"sort"
)

const (
	// defaultCellP95Target is the band's upper edge when
	// Options.CellP95Target is 0: 50ms of compute per cell per period.
	defaultCellP95Target = 0.05
	// autotuneWindow bounds each cell's observation ring; p95 over a
	// short window keeps the controller responsive to regime changes.
	autotuneWindow = 8
	// autotuneMinObs is how many windowed observations a cell needs
	// before the controller acts on it — one sample is noise.
	autotuneMinObs = 2
	// autotuneWarmup discards this many observations after a membership
	// edit: the first run of an edited cell pays one-off cache misses
	// and model rebuild checks that say nothing about its steady cost,
	// and acting on it would oscillate (split → expensive rebuild →
	// split again).
	autotuneWarmup = 1
	// autotuneLowFrac sets the band's floor as a fraction of the
	// target. Two cells below the floor merge into one whose predicted
	// p95 (≤ the sum, ≤ target/2) still clears the split threshold with
	// a 2× hysteresis margin.
	autotuneLowFrac = 0.25
	// autotuneEwmaAlpha weighs a new observation into the scheduling
	// EWMA.
	autotuneEwmaAlpha = 0.4
)

// cellLatency is one cell's compute-latency feedback: a bounded ring of
// recent periodCell durations (seconds) for the auto-tuner's p95, and
// an EWMA for the dispatcher's expected-duration ranking. Cells that
// settle stop being observed — their windows go stale and the
// controller leaves them alone, which is exactly right: a replayed cell
// costs nothing, so its latency needs no tuning. The stale bit tracks
// exactly that: every committed period marks all cells stale and then
// clears the bit on the cells it observed, so stale means "did not
// compute last period" and the controller (and CellLatencyP95) can tell
// a live window from one frozen periods ago.
type cellLatency struct {
	ewma  float64
	win   [autotuneWindow]float64
	n     int  // live observations in win
	next  int  // ring cursor
	skip  int  // observations left to discard (post-edit warmup)
	stale bool // no observation in the last committed period
}

// observe records one periodCell duration. The EWMA always updates
// (even a warmup run is a fine scheduling hint); the p95 window only
// accepts observations past the warmup skip.
func (l *cellLatency) observe(d float64) {
	l.stale = false
	if l.ewma == 0 {
		l.ewma = d
	} else {
		l.ewma += autotuneEwmaAlpha * (d - l.ewma)
	}
	if l.skip > 0 {
		l.skip--
		return
	}
	l.win[l.next] = d
	l.next = (l.next + 1) % autotuneWindow
	if l.n < autotuneWindow {
		l.n++
	}
}

// edited resets the window after a membership edit (the old
// observations described a cell that no longer exists) and arms the
// warmup skip. The EWMA is the caller's to adjust — a split halves it,
// a merge sums it.
func (l *cellLatency) edited() {
	l.n, l.next = 0, 0
	l.skip = autotuneWarmup
}

// p95 returns the window's 95th-percentile duration, or -1 with fewer
// than one observation.
func (l *cellLatency) p95() float64 {
	if l.n == 0 {
		return -1
	}
	var buf [autotuneWindow]float64
	s := buf[:l.n]
	copy(s, l.win[:l.n])
	sort.Float64s(s)
	k := int(math.Ceil(0.95*float64(l.n))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// CellLatencyP95 reports one cell's observed p95 compute latency in
// seconds — the auto-tuner's feedback signal — or -1 when the cell has
// no (post-warmup) observations yet, was not observed in the last
// committed period (settled cells replay instead of computing, so their
// windows are stale), or the index is out of range. Read between
// periods; it is not synchronized with a running Period.
func (o *Orchestrator) CellLatencyP95(cell int) float64 {
	if cell < 0 || cell >= len(o.lat) {
		return -1
	}
	if o.lat[cell].stale {
		return -1
	}
	return o.lat[cell].p95()
}

// lptOrder fills order with runCells sorted longest-expected-first by
// EWMA (stable, so unknown cells keep ascending order at the back).
// core.ForEach dispatches dynamically — each worker pulls the next
// index off a shared counter — so handing it this order is
// longest-processing-time-first scheduling with work stealing: the
// expected stragglers start immediately and finished workers pull the
// remaining queue dry.
func (o *Orchestrator) lptOrder(order, runCells []int) []int {
	order = append(order[:0], runCells...)
	sort.SliceStable(order, func(x, y int) bool {
		return o.lat[order[x]].ewma > o.lat[order[y]].ewma
	})
	return order
}

// autoTune is the cell-size controller, run at each successful period's
// commit (after rebalance moves are applied, before metrics). ran lists
// the cells that computed this period, ascending — split decisions act
// only on freshly observed cells, because a cell that replays costs no
// compute and must never split. The partition edits recorded in
// rep.CellSplits/CellMerges take effect next period.
func (o *Orchestrator) autoTune(rep *PeriodReport, ran []int) {
	if !o.opts.AutoTuneCells {
		return
	}
	target := o.opts.CellP95Target
	if target <= 0 {
		target = defaultCellP95Target
	}
	// Splits first: every cell observed above the band with at least two
	// machines and enough samples. Newly founded halves are not
	// re-examined until they accumulate their own observations.
	for _, c := range ran {
		l := &o.lat[c]
		if len(o.cells[c]) < 2 || l.n < autotuneMinObs {
			continue
		}
		if l.p95() > target {
			o.splitCell(c)
			rep.CellSplits = append(rep.CellSplits, c)
		}
	}
	if len(rep.CellSplits) > 0 {
		o.met.cellSplits.Add(uint64(len(rep.CellSplits)))
		return
	}
	// Merge at most one pair per period, and only in a period that split
	// nothing: both cells below the band's floor with enough samples,
	// combined size within the Options.Cells ceiling. Stale cells — not
	// observed this period, typically because they settled and replayed
	// — are skipped: their frozen windows describe a regime periods old,
	// and a replayed cell costs nothing, so there is no latency to tune
	// (the cellLatency contract). Scanned in ascending (a, b) order for
	// determinism; the lower-indexed cell absorbs the other.
	floor := target * autotuneLowFrac
	for a := 0; a < len(o.cells); a++ {
		la := &o.lat[a]
		if len(o.cells[a]) == 0 || la.stale || la.n < autotuneMinObs || la.p95() >= floor {
			continue
		}
		for b := a + 1; b < len(o.cells); b++ {
			lb := &o.lat[b]
			if len(o.cells[b]) == 0 || lb.stale || lb.n < autotuneMinObs || lb.p95() >= floor {
				continue
			}
			if len(o.cells[a])+len(o.cells[b]) > o.opts.Cells {
				continue
			}
			o.mergeCells(a, b)
			rep.CellMerges = append(rep.CellMerges, [2]int{a, b})
			o.met.cellMerges.Inc()
			return
		}
	}
}

// occupiedCells counts cells that currently hold machines (partition
// edits and emptied-by-removal cells leave reusable empty slots).
func (o *Orchestrator) occupiedCells() int {
	n := 0
	for _, servers := range o.cells {
		if len(servers) > 0 {
			n++
		}
	}
	return n
}

// installCell rebuilds a cell's derived indexes after a membership
// edit: cellOf, localIdx, cellProfiles, and each member machine's cache
// shard binding (the manager state itself is untouched — refined models
// survive partition edits, they only re-prime a colder shard).
func (o *Orchestrator) installCell(c int, members []int) {
	profiles := make([]string, len(members))
	for l, s := range members {
		o.cellOf[s] = c
		o.localIdx[s] = l
		profiles[l] = o.opts.Profiles[s]
		o.machines[s].scores = o.scores[c]
	}
	o.cellProfiles[c] = profiles
}

// newCellSlot returns an empty cell slot, reusing the smallest emptied
// one (no machines, no stored outcome) before founding a new cell — the
// same founding path AddServer uses.
func (o *Orchestrator) newCellSlot() int {
	for c := range o.cells {
		if len(o.cells[c]) == 0 && o.delta[c].out == nil {
			return c
		}
	}
	return o.foundCell()
}

// splitCell divides cell c into two profile-balanced halves: c keeps
// one half, the other founds (or reuses) another cell slot. Global
// server indexes and the tenant assignment are untouched — tenants
// travel with their machines — so a split changes no report content,
// counts no migrations, and dirties exactly the two halves (their
// stored outcomes answer for a membership that no longer exists).
// Returns the new half's cell index.
func (o *Orchestrator) splitCell(c int) int {
	keep, move := splitCellMembers(o.cellProfiles[c], o.cells[c])
	if len(move) == 0 {
		return c
	}
	nc := o.newCellSlot()
	o.cells[c] = append([]int(nil), keep...)
	o.installCell(c, o.cells[c])
	o.cells[nc] = append([]int(nil), move...)
	o.installCell(nc, o.cells[nc])
	o.delta[c] = cellDelta{}
	o.delta[nc] = cellDelta{}
	// Each half expects to cost about half the parent; both windows
	// restart with a warmup skip.
	half := o.lat[c].ewma / 2
	o.lat[c].edited()
	o.lat[c].ewma = half
	o.lat[nc] = cellLatency{}
	o.lat[nc].edited()
	o.lat[nc].ewma = half
	return nc
}

// mergeCells folds cell from into cell into (the caller keeps into <
// from): into absorbs from's machines in their local order, from
// becomes an empty reusable slot. Like a split, the merge moves no
// tenant between servers and dirties exactly the two cells involved.
func (o *Orchestrator) mergeCells(into, from int) {
	o.cells[into] = append(o.cells[into], o.cells[from]...)
	o.installCell(into, o.cells[into])
	o.cells[from] = nil
	o.cellProfiles[from] = nil
	o.delta[into] = cellDelta{}
	o.delta[from] = cellDelta{}
	sum := o.lat[into].ewma + o.lat[from].ewma
	o.lat[into].edited()
	o.lat[into].ewma = sum
	o.lat[from] = cellLatency{}
}
