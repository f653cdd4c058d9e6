package sched

import (
	"fmt"
	"strings"

	"github.com/mia-rt/mia/internal/model"
)

// Gantt renders the schedule as an ASCII timing diagram in the style of the
// paper's Figure 1: one row per core, one box per task spanning its
// execution window, annotated with the task name and, when non-zero, its
// interference ("I:n"). width is the approximate number of character
// columns for the time axis (minimum 20; 0 selects 72).
//
// The rendering is for human inspection of small schedules; boxes narrower
// than their label are truncated.
func Gantt(g *model.Graph, r *Result, width int) string {
	if width <= 0 {
		width = 72
	}
	if width < 20 {
		width = 20
	}
	span := int64(r.Makespan)
	if span <= 0 {
		span = 1
	}
	// Proportional mapping: column = t·width/span, so short schedules
	// stretch across the full width and long ones compress to fit.
	col := func(t model.Cycles) int { return int(int64(t) * int64(width) / span) }
	cols := width + 1

	var sb strings.Builder
	for k := 0; k < g.Cores; k++ {
		row := make([]byte, cols)
		for i := range row {
			row[i] = ' '
		}
		for _, id := range g.Order(model.CoreID(k)) {
			from, to := r.Window(id)
			c0, c1 := col(from), col(to)
			if c1 <= c0 {
				c1 = c0 + 1
			}
			if c1 > cols {
				c1 = cols
			}
			label := g.Name(id)
			if inter := r.Interference[id]; inter > 0 {
				label += fmt.Sprintf(" I:%d", inter)
			}
			row[c0] = '['
			for c := c0 + 1; c < c1; c++ {
				row[c] = '.'
			}
			if c1-1 > c0 {
				row[c1-1] = ']'
			}
			for i := 0; i < len(label) && c0+1+i < c1-1; i++ {
				row[c0+1+i] = label[i]
			}
		}
		fmt.Fprintf(&sb, "%-5s|%s|\n", model.CoreID(k), string(row))
	}
	// Time axis with tick marks every ~10 columns.
	axis := make([]byte, cols)
	for i := range axis {
		axis[i] = '-'
	}
	var marks []string
	const step = 10
	for c := 0; c < cols; c += step {
		axis[c] = '+'
		marks = append(marks, fmt.Sprintf("%-*d", step, int64(c)*span/int64(width)))
	}
	fmt.Fprintf(&sb, "t:    %s\n", string(axis))
	fmt.Fprintf(&sb, "      %s\n", strings.TrimRight(strings.Join(marks, ""), " "))
	fmt.Fprintf(&sb, "makespan = %d cycles (%s)\n", r.Makespan, r.Algorithm)
	return sb.String()
}
