package fleet

// The cell partition. Servers are grouped by hardware profile
// (first-appearance order) and the groups are dealt round-robin across
// ⌈servers/Cells⌉ cells, so every cell holds an equal share of every
// profile class (±1) and a tenant needing a particular hardware
// generation finds it in any cell. The partition depends only on
// (profiles, Options.Cells): New computes it, and a snapshot's TOPO
// section carries the live one, which AddServer, RemoveServer and
// auto-tune edits may have moved away from it. A fleet of at most Cells
// machines forms a single cell whose local indexes equal the global
// ones.

// NumCells returns how many cells a fleet of the given size partitions
// into under a cell-size bound (≤ 0 disables partitioning: one cell).
func NumCells(servers, cellSize int) int {
	if cellSize <= 0 || servers <= cellSize {
		return 1
	}
	return (servers + cellSize - 1) / cellSize
}

// partitionCells splits a fleet into cells of at most cellSize machines:
// the returned slice holds each cell's server indexes in ascending
// order, balanced both in total size and per profile class.
func partitionCells(profiles []string, cellSize int) [][]int {
	cells := make([][]int, NumCells(len(profiles), cellSize))
	for s, c := range CellIndex(profiles, cellSize) {
		cells[c] = append(cells[c], s)
	}
	return cells
}

// CellIndex returns the per-server cell assignment of the partition New
// builds: CellIndex(profiles, cellSize)[s] is server s's cell. All
// indexes are 0 when the fleet fits one cell.
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

// splitCellMembers divides one cell's servers into two profile-balanced
// halves for a partition split: members are grouped by profile class
// (first-appearance order over the cell's local profile slice, the same
// order CellIndex uses fleet-wide) and dealt with one rolling
// counter — exactly the two-cell case of the partitioner — so the
// halves are balanced both in total size (±1, keep gets the extra) and
// per profile class (±1), and a tenant needing a particular hardware
// generation still finds it after the split. profiles[i] is the profile
// of members[i]. A cell of fewer than two servers is unsplittable: keep
// aliases members and move is nil.
func splitCellMembers(profiles []string, members []int) (keep, move []int) {
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
