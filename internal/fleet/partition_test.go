package fleet

import (
	"reflect"
	"sort"
	"testing"
)

// The partitioner's contract: deterministic, covering, balanced in
// total size and per profile class, and degenerate (one cell) for small
// fleets or a disabled bound.
func TestCellPartitionShape(t *testing.T) {
	profiles := []string{"a", "b", "a", "b", "a", "b", "a", "b", "a", "b"}
	cells := partitionCells(profiles, 4)
	if len(cells) != 3 {
		t.Fatalf("10 servers at cell size 4: want 3 cells, got %v", cells)
	}
	seen := make([]bool, len(profiles))
	for c, servers := range cells {
		if len(servers) < 3 || len(servers) > 4 {
			t.Errorf("cell %d size %d, want 3..4: %v", c, len(servers), servers)
		}
		perProfile := map[string]int{}
		for i, s := range servers {
			if seen[s] {
				t.Fatalf("server %d in two cells", s)
			}
			seen[s] = true
			perProfile[profiles[s]]++
			if i > 0 && servers[i-1] >= s {
				t.Fatalf("cell %d not ascending: %v", c, servers)
			}
		}
		// 5 of each profile over 3 cells: every cell gets 1 or 2 of each.
		for p, n := range perProfile {
			if n < 1 || n > 2 {
				t.Errorf("cell %d holds %d %q machines, want 1..2", c, n, p)
			}
		}
	}
	for s, ok := range seen {
		if !ok {
			t.Fatalf("server %d unassigned", s)
		}
	}
	if !reflect.DeepEqual(cells, partitionCells(profiles, 4)) {
		t.Fatal("partition not deterministic")
	}
	// CellIndex agrees with the partition.
	idx := CellIndex(profiles, 4)
	for c, servers := range cells {
		for _, s := range servers {
			if idx[s] != c {
				t.Fatalf("CellIndex[%d]=%d, partition says %d", s, idx[s], c)
			}
		}
	}
	// Small fleets and a disabled bound collapse to one cell.
	for _, size := range []int{0, -1, 10, 99} {
		if n := NumCells(10, size); n != 1 {
			t.Errorf("NumCells(10, %d) = %d, want 1", size, n)
		}
	}
}

// splitCellMembers must deal a cell into two halves balanced both in
// total size (keep gets the extra) and per profile class, covering the
// members exactly; sub-splittable cells come back unchanged.
func TestSplitCellMembers(t *testing.T) {
	profiles := []string{"a", "b", "a", "b", "a"}
	members := []int{10, 11, 12, 13, 14}
	keep, move := splitCellMembers(profiles, members)
	if len(keep) != 3 || len(move) != 2 {
		t.Fatalf("split sizes %d/%d, want 3/2 (keep gets the extra)", len(keep), len(move))
	}
	byProfile := map[string][2]int{}
	prof := map[int]string{}
	for i, m := range members {
		prof[m] = profiles[i]
	}
	all := append(append([]int(nil), keep...), move...)
	sort.Ints(all)
	for i, m := range all {
		if m != members[i] {
			t.Fatalf("halves %v+%v do not cover members %v", keep, move, members)
		}
	}
	for _, m := range keep {
		c := byProfile[prof[m]]
		c[0]++
		byProfile[prof[m]] = c
	}
	for _, m := range move {
		c := byProfile[prof[m]]
		c[1]++
		byProfile[prof[m]] = c
	}
	for p, c := range byProfile {
		if d := c[0] - c[1]; d < -1 || d > 1 {
			t.Errorf("profile %q split %d/%d, want balanced ±1", p, c[0], c[1])
		}
	}

	keep, move = splitCellMembers([]string{"a"}, []int{7})
	if len(keep) != 1 || keep[0] != 7 || move != nil {
		t.Errorf("single-machine cell split to %v/%v, want unchanged", keep, move)
	}
}
