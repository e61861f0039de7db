// Package textplot renders experiment results as fixed-width text tables
// and simple ASCII charts, for cmd/experiments output.
package textplot

import (
	"fmt"
	"strings"
)

// Table renders columns with a header row; all columns must share the
// header's length or be shorter (missing cells render blank).
func Table(headers []string, cols [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
		if i < len(cols) {
			for _, cell := range cols[i] {
				if len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
	}
	rows := 0
	for _, c := range cols {
		if len(c) > rows {
			rows = len(c)
		}
	}
	var sb strings.Builder
	writeRow := func(cells func(i int) string) {
		for i := range headers {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cells(i))
		}
		sb.WriteString("\n")
	}
	writeRow(func(i int) string { return headers[i] })
	writeRow(func(i int) string { return strings.Repeat("-", widths[i]) })
	for r := 0; r < rows; r++ {
		writeRow(func(i int) string {
			if i < len(cols) && r < len(cols[i]) {
				return cols[i][r]
			}
			return ""
		})
	}
	return sb.String()
}

// Fmt formats a float compactly for table cells.
func Fmt(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01 || v <= -0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// Percent formats a ratio as a percentage cell.
func Percent(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// Bar renders a labeled horizontal bar chart for (label, value) pairs,
// scaled to width characters for the largest value.
func Bar(labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 40
	}
	maxV := 0.0
	maxL := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	var sb strings.Builder
	for i, v := range values {
		n := 0
		if maxV > 0 {
			n = int(v / maxV * float64(width))
		}
		fmt.Fprintf(&sb, "%-*s |%s %s\n", maxL, labels[i], strings.Repeat("#", n), Fmt(v))
	}
	return sb.String()
}
