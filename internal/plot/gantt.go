package plot

import (
	"fmt"
	"io"
	"strings"

	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// ganttColors shades task boxes per core.
var ganttColors = []string{"#9ecae1", "#a1d99b", "#fdae6b", "#bcbddc", "#fc9272", "#c7e9c0", "#fdd0a2", "#dadaeb"}

// GanttSVG renders a computed schedule as an SVG timing diagram in the
// style of the paper's Figure 1: one lane per core, one box per task
// spanning [release, finish), labeled with the task name and its
// interference when non-zero.
func GanttSVG(w io.Writer, g *model.Graph, res *sched.Result, width int) error {
	if width < 300 {
		width = 300
	}
	const laneH = 34.0
	const laneGap = 8.0
	const left = 60.0
	const top = 30.0
	span := float64(res.Makespan)
	if span <= 0 {
		span = 1
	}
	plotW := float64(width) - left - 20
	xpos := func(t model.Cycles) float64 { return left + float64(t)/span*plotW }
	height := int(top + float64(g.Cores)*(laneH+laneGap) + 50)

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif" font-size="11">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&sb, `<text x="%g" y="18" font-size="13" font-weight="bold">%s schedule — makespan %d cycles</text>`+"\n",
		left, esc(res.Algorithm), res.Makespan)

	for k := 0; k < g.Cores; k++ {
		laneY := top + float64(k)*(laneH+laneGap)
		fmt.Fprintf(&sb, `<text x="8" y="%.1f">%s</text>`+"\n", laneY+laneH/2+4, model.CoreID(k))
		fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ccc"/>`+"\n",
			left, laneY+laneH, left+plotW, laneY+laneH)
		color := ganttColors[k%len(ganttColors)]
		for _, id := range g.Order(model.CoreID(k)) {
			from, to := res.Window(id)
			x0, x1 := xpos(from), xpos(to)
			if x1-x0 < 1 {
				x1 = x0 + 1
			}
			fmt.Fprintf(&sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#333"/>`+"\n",
				x0, laneY, x1-x0, laneH, color)
			label := g.Name(id)
			if inter := res.Interference[id]; inter > 0 {
				label += fmt.Sprintf(" I:%d", inter)
			}
			fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" clip-path="none">%s</text>`+"\n", x0+3, laneY+laneH/2+4, esc(label))
		}
	}
	// Time axis with ~8 ticks.
	axisY := top + float64(g.Cores)*(laneH+laneGap) + 10
	fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#444"/>`+"\n", left, axisY, left+plotW, axisY)
	step := niceStep(res.Makespan, 8)
	for t := model.Cycles(0); t <= res.Makespan; t += step {
		x := xpos(t)
		fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#444"/>`+"\n", x, axisY, x, axisY+5)
		fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" text-anchor="middle">%d</text>`+"\n", x, axisY+18, t)
		if step == 0 {
			break
		}
	}
	sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// niceStep picks a round tick interval yielding about the wanted count.
func niceStep(span model.Cycles, ticks int) model.Cycles {
	if span <= 0 || ticks < 1 {
		return 1
	}
	raw := int64(span) / int64(ticks)
	if raw < 1 {
		return 1
	}
	mag := int64(1)
	for mag*10 <= raw {
		mag *= 10
	}
	for _, mult := range []int64{1, 2, 5, 10} {
		if raw <= mult*mag {
			return model.Cycles(mult * mag)
		}
	}
	return model.Cycles(10 * mag)
}
