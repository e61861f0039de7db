package placement

import "repro/internal/obs"

// Metrics is the optional set of observability counters the enumerator
// feeds. All fields are nil-safe obs counters: the zero Metrics (the
// default) makes every report a no-op with zero allocations. Counting
// is strictly passive — nothing here influences a placement decision,
// so results stay bit-identical with metrics on or off.
type Metrics struct {
	// GreedySteps counts candidate machine scorings performed by the
	// greedy loop ("tenant t on machine s" what-ifs).
	GreedySteps *obs.Counter
	// LocalSearchMoves counts applied local-search moves and swaps.
	LocalSearchMoves *obs.Counter
}
