package model

import (
	"fmt"
	"strings"
)

// RenderTable renders rows as an aligned text table in the paper's figure
// style: one column per schema column plus ↑/↓ vote-count columns. Empty
// cells print as "·". Intended for CLIs, examples, and debugging output.
func RenderTable(s *Schema, rows []*Row) string {
	cells := [][]string{append(s.ColumnNames(), "↑", "↓")}
	for _, r := range rows {
		cells = append(cells, append(displayCells(r.Vec), fmt.Sprint(r.Up), fmt.Sprint(r.Down)))
	}
	return renderCells(cells)
}

// RenderFinal renders a final table (no vote columns; final scores are
// implied by membership).
func RenderFinal(s *Schema, rows []*Row) string {
	cells := [][]string{s.ColumnNames()}
	for _, r := range rows {
		cells = append(cells, displayCells(r.Vec))
	}
	return renderCells(cells)
}

// displayCells returns v's values for display, "·" for an empty cell.
func displayCells(v Vector) []string {
	out := make([]string, len(v))
	for i, c := range v {
		out[i] = "·"
		if c.Set {
			out[i] = c.Val
		}
	}
	return out
}

// renderCells aligns a header line and its rows into columns, with a rule
// under the header.
func renderCells(cells [][]string) string {
	widths := make([]int, len(cells[0]))
	for _, line := range cells {
		for i, cell := range line {
			if w := displayWidth(cell); w > widths[i] {
				widths[i] = w
			}
		}
	}
	var b strings.Builder
	for li, line := range cells {
		for i, cell := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(line)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-displayWidth(cell)))
			}
		}
		b.WriteByte('\n')
		if li == 0 {
			total := 0
			for _, w := range widths {
				total += w + 2
			}
			b.WriteString(strings.Repeat("-", total-2))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// displayWidth counts runes (the vote arrows are multi-byte but single-width).
func displayWidth(s string) int { return len([]rune(s)) }
