package plot

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

func sampleLogLog() *LogLog {
	return &LogLog{
		Title:  "NL64",
		XLabel: "nodes",
		YLabel: "time (s)",
		Series: []Series{
			{
				Name:  "New (incremental)",
				Xs:    []float64{128, 256, 512, 1024},
				Ys:    []float64{0.0001, 0.0002, 0.0011, 0.0060},
				FitOK: true, FitExponent: 1.92, FitScale: 1e-8,
			},
			{
				Name:  "Old (fixpoint)",
				Xs:    []float64{128, 256, 512},
				Ys:    []float64{0.0014, 0.0524, 1.2249},
				FitOK: true, FitExponent: 4.70, FitScale: 1e-13,
			},
		},
	}
}

func TestLogLogRender(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLogLog().Render(&buf, 640, 480); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"<svg", "</svg>", "NL64", "nodes", "time (s)",
		"O(n^1.92)", "O(n^4.70)", "stroke-dasharray", "circle",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// 4 + 3 measurement points.
	if got := strings.Count(out, "<circle"); got != 7 {
		t.Errorf("%d circles, want 7", got)
	}
}

func TestLogLogSkipsNonPositive(t *testing.T) {
	p := &LogLog{Series: []Series{{
		Name: "x",
		Xs:   []float64{10, 100, 1000},
		Ys:   []float64{1, -1, 0}, // only the first usable
	}}}
	var buf bytes.Buffer
	if err := p.Render(&buf, 400, 300); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if got := strings.Count(buf.String(), "<circle"); got != 1 {
		t.Errorf("%d circles, want 1", got)
	}
}

func TestLogLogEmpty(t *testing.T) {
	p := &LogLog{Series: []Series{{Name: "x", Xs: []float64{1}, Ys: []float64{-1}}}}
	if err := p.Render(&bytes.Buffer{}, 400, 300); err == nil {
		t.Fatal("empty plot accepted")
	}
}

func TestLogLogTinySizesClamped(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLogLog().Render(&buf, 10, 10); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), `width="200"`) {
		t.Error("width not clamped")
	}
}

func TestEscape(t *testing.T) {
	p := sampleLogLog()
	p.Title = `a < b & c > d`
	var buf bytes.Buffer
	if err := p.Render(&buf, 400, 300); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a &lt; b &amp; c &gt; d") {
		t.Error("title not escaped")
	}
}

func TestGanttSVG(t *testing.T) {
	g := gen.Figure1()
	img, err := engine.Compile(g, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.MustNew(engine.Incremental).Analyze(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := GanttSVG(&buf, g, res, 700); err != nil {
		t.Fatalf("GanttSVG: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"PE0", "PE3", "n3 I:2", "makespan 7 cycles", "<rect"} {
		if !strings.Contains(out, want) {
			t.Errorf("Gantt SVG missing %q", want)
		}
	}
	// One box per task (plus the background rect).
	if got := strings.Count(out, "<rect"); got != g.NumTasks()+1 {
		t.Errorf("%d rects, want %d", got, g.NumTasks()+1)
	}
}

func TestGanttSVGEmptySchedule(t *testing.T) {
	g := gen.Figure1()
	res := sched.NewResult("x", g.NumTasks(), g.Banks)
	var buf bytes.Buffer
	if err := GanttSVG(&buf, g, res, 400); err != nil {
		t.Fatalf("GanttSVG on zero makespan: %v", err)
	}
}

func TestNiceStep(t *testing.T) {
	cases := map[int64]int64{
		7:     1,
		80:    10,
		100:   20,
		999:   200,
		2328:  500,
		10000: 2000,
	}
	for span, want := range cases {
		if got := niceStep(model.Cycles(span), 8); int64(got) != want {
			t.Errorf("niceStep(%d) = %d, want %d", span, got, want)
		}
	}
	if niceStep(0, 8) != 1 || niceStep(100, 0) != 1 {
		t.Error("degenerate inputs not clamped")
	}
}
