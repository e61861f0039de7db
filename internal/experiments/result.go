// Package experiments contains one runner per table and figure of the
// paper's evaluation (§7). Each runner builds its scenario from the
// simulated substrate, executes the advisor pipeline, and returns a
// Result whose series mirror the axes of the original figure.
//
// Runners are registered by ID; `go run ./cmd/experiments -list` prints
// every ID, and the ID says what the runner reproduces:
//
//   - figNN is the paper's Figure NN (fig02 … fig36);
//   - sec7.2 is §7.2, the cost of calibration and search;
//   - ablation-* (the advisor's cost cache, greedy step and calibration
//     grid) and fleet-* (the fleet's caches, migration penalty and
//     scale) are this repository's own experiments, with no paper
//     counterpart.
//
// Where the paper states a number or a shape, the runner prints the
// comparison as a note below its table (Result.Note), the paper's value
// beside the measured one — fig02, for example, prints "DB2
// improvement: 12.6% (paper: ~55%)".
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/textplot"
)

// Series is one plotted line: Y values over the shared X axis of the
// Result (Y entries may be fewer than X for ragged data).
type Series struct {
	Name string
	Y    []float64
}

// Result is a completed experiment in a renderable form.
type Result struct {
	ID     string
	Title  string
	XLabel string
	X      []float64
	YLabel string
	Series []Series
	// Notes carry free-form findings ("crossover at k=6", substitution
	// notes, convergence counts).
	Notes []string
}

// AddSeries appends a named series.
func (r *Result) AddSeries(name string, y []float64) {
	r.Series = append(r.Series, Series{Name: name, Y: y})
}

// Note appends a formatted note.
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render prints the result as a table plus notes.
func (r *Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	headers := []string{r.XLabel}
	cols := [][]string{formatCol(r.X)}
	for _, s := range r.Series {
		headers = append(headers, s.Name)
		cols = append(cols, formatCol(s.Y))
	}
	sb.WriteString(textplot.Table(headers, cols))
	if r.YLabel != "" {
		fmt.Fprintf(&sb, "(y: %s)\n", r.YLabel)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func formatCol(vals []float64) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = textplot.Fmt(v)
	}
	return out
}

// Runner executes one experiment against an environment.
type Runner func(*Env) (*Result, error)

// registry maps experiment IDs to runners; filled by init() calls in the
// per-figure files.
var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs lists registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, env *Env) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(env)
}
