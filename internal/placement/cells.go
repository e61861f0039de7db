package placement

// Cells: the scale-out layer of the placement enumerator. A fleet of a
// thousand machines makes the flat greedy loop quadratic — every tenant
// scores every non-full machine — so large fleets are partitioned into
// cells of at most Options.Cells machines each, and placement becomes a
// two-level search: aggregate per-cell headroom summaries pick a few
// candidate cells, and the existing machine-level greedy scoring runs
// only over those cells' machines. Local search is likewise confined to
// moves and swaps within one cell, bounding each round's candidate set
// by the cell size instead of the fleet size.
//
// The partition is deterministic: servers are grouped by hardware
// profile (first-appearance order, the same order fleetShape.distinct
// uses) and the groups are dealt round-robin across ⌈servers/Cells⌉
// cells, so every cell holds an equal share of every profile class (±1)
// and a tenant needing a particular hardware generation finds it in any
// candidate cell. A fleet of at most Cells machines forms a single cell,
// and a single cell disables every cell-local restriction — the search
// degenerates to exactly the flat enumerator, which is what makes small
// fleets bit-identical with cells on or off.

// NumCells returns how many cells a fleet of the given size partitions
// into under a cell-size bound (≤ 0 disables partitioning: one cell).
func NumCells(servers, cellSize int) int {
	if cellSize <= 0 || servers <= cellSize {
		return 1
	}
	return (servers + cellSize - 1) / cellSize
}

// PartitionCells splits a fleet into cells of at most cellSize machines:
// the returned slice holds each cell's server indexes in ascending
// order. Servers are grouped by profile key and the groups dealt
// round-robin over the cells, so cells are balanced both in total size
// and per profile class. The partition depends only on (profiles,
// cellSize) — stable across calls, which is what lets a fleet
// orchestrator shard caches and managers by cell.
func PartitionCells(profiles []string, cellSize int) [][]int {
	cells := make([][]int, NumCells(len(profiles), cellSize))
	for s, c := range CellIndex(profiles, cellSize) {
		cells[c] = append(cells[c], s)
	}
	return cells
}

// CellIndex returns the per-server cell assignment of PartitionCells:
// CellIndex(profiles, cellSize)[s] is server s's cell. All indexes are 0
// when the fleet fits one cell.
func CellIndex(profiles []string, cellSize int) []int {
	servers := len(profiles)
	out := make([]int, servers)
	nc := NumCells(servers, cellSize)
	if nc == 1 {
		return out
	}
	// Group servers by profile key in first-appearance order, then deal
	// the groups' members onto cells with one rolling counter: members
	// of one profile land on consecutive cells (per-profile balance) and
	// the counter never resets between groups (total-size balance).
	order := make(map[string][]int)
	var keys []string
	for s, p := range profiles {
		if _, ok := order[p]; !ok {
			keys = append(keys, p)
		}
		order[p] = append(order[p], s)
	}
	c := 0
	for _, p := range keys {
		for _, s := range order[p] {
			out[s] = c % nc
			c++
		}
	}
	return out
}

// SplitCellMembers divides one cell's servers into two profile-balanced
// halves for a partition split: members are grouped by profile class
// (first-appearance order over the cell's local profile slice, the same
// order CellIndex uses fleet-wide) and dealt with one rolling
// counter — exactly the two-cell case of the fleet partitioner — so the
// halves are balanced both in total size (±1, keep gets the extra) and
// per profile class (±1), and a tenant needing a particular hardware
// generation still finds it after the split. profiles[i] is the profile
// of members[i]. A cell of fewer than two servers is unsplittable: keep
// aliases members and move is nil.
func SplitCellMembers(profiles []string, members []int) (keep, move []int) {
	if len(members) < 2 {
		return members, nil
	}
	order := make(map[string][]int)
	var keys []string
	for i, p := range profiles {
		if _, ok := order[p]; !ok {
			keys = append(keys, p)
		}
		order[p] = append(order[p], members[i])
	}
	keep = make([]int, 0, (len(members)+1)/2)
	move = make([]int, 0, len(members)/2)
	c := 0
	for _, p := range keys {
		for _, s := range order[p] {
			if c%2 == 0 {
				keep = append(keep, s)
			} else {
				move = append(move, s)
			}
			c++
		}
	}
	return keep, move
}

// cellState is the two-level search's level-one index: per-cell
// aggregate headroom summaries, maintained incrementally as the greedy
// loop seats tenants so candidate-cell selection never rescans the
// fleet.
type cellState struct {
	cellOf []int // server → cell
	nc     int
	// freeSlots counts unseated capacity per cell; load is the cell's
	// gain-weighted objective (the sum of its machines' totals); nonFull
	// counts machines with spare capacity per (cell, distinct profile).
	freeSlots []int
	load      []float64
	nonFull   [][]int
}

// newCellState builds the summaries for a partially seated fleet (the
// greedy loop starts after pins and seeds are placed). Returns nil for a
// single-cell fleet: one cell means no restriction, and the caller's
// nil-check keeps the flat enumerator byte-for-byte untouched.
func newCellState(sh fleetShape, machines []Machine, totals []float64, capacity, cellSize int) *cellState {
	servers := len(sh.profiles)
	nc := NumCells(servers, cellSize)
	if nc == 1 {
		return nil
	}
	cs := &cellState{
		cellOf:    CellIndex(sh.profiles, cellSize),
		nc:        nc,
		freeSlots: make([]int, nc),
		load:      make([]float64, nc),
		nonFull:   make([][]int, nc),
	}
	for c := range cs.nonFull {
		cs.nonFull[c] = make([]int, len(sh.distinct))
	}
	for s := 0; s < servers; s++ {
		c := cs.cellOf[s]
		if spare := capacity - len(machines[s].Tenants); spare > 0 {
			cs.freeSlots[c] += spare
			cs.nonFull[c][sh.profIdx[s]]++
		}
		cs.load[c] += totals[s]
	}
	return cs
}

// better ranks cells for candidate selection: more free slots first
// (headroom), then lower load (the cheaper half of the fleet), then the
// smaller index (the deterministic tie-break).
func (cs *cellState) better(a, b int) bool {
	if cs.freeSlots[a] != cs.freeSlots[b] {
		return cs.freeSlots[a] > cs.freeSlots[b]
	}
	if cs.load[a] != cs.load[b] {
		return cs.load[a] < cs.load[b]
	}
	return a < b
}

// candidates returns the level-one selection for one tenant: for each
// distinct profile, the best-ranked cell that still has a non-full
// machine of that profile, as a per-server allow mask. Cells with no
// headroom are never candidates — a full (or profile-exhausted) cell
// falls through to the next-ranked one — and a nil mask means no cell
// can host anyone: the caller reports the same "no machine" error the
// flat enumerator would. The union is at most one cell per profile
// class, so level two scores O(Cells × profiles) machines instead of
// O(servers).
func (cs *cellState) candidates() []bool {
	chosen := make([]int, 0, 2)
	for d := 0; d < len(cs.nonFull[0]); d++ {
		best := -1
		for c := 0; c < cs.nc; c++ {
			if cs.nonFull[c][d] == 0 {
				continue
			}
			if best < 0 || cs.better(c, best) {
				best = c
			}
		}
		if best < 0 {
			continue
		}
		dup := false
		for _, c := range chosen {
			if c == best {
				dup = true
				break
			}
		}
		if !dup {
			chosen = append(chosen, best)
		}
	}
	if len(chosen) == 0 {
		return nil
	}
	allowed := make([]bool, len(cs.cellOf))
	for s, c := range cs.cellOf {
		for _, want := range chosen {
			if c == want {
				allowed[s] = true
				break
			}
		}
	}
	return allowed
}

// seated updates the summaries after the greedy loop places one tenant
// on server s, whose machine total moved from oldTotal to newTotal.
func (cs *cellState) seated(sh fleetShape, s int, members, capacity int, oldTotal, newTotal float64) {
	c := cs.cellOf[s]
	cs.freeSlots[c]--
	cs.load[c] += newTotal - oldTotal
	if members >= capacity {
		cs.nonFull[c][sh.profIdx[s]]--
	}
}
