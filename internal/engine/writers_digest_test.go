package engine_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/plot"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/stg"
	"github.com/mia-rt/mia/internal/trace"
)

// writerDigest is the SHA-256 over every byte TestWriterDigestGolden's
// text writers emit.
const writerDigest = "258492207ac21519629e12b331ca4f381cbc72e42e94e3878b045c9706ceb662"

// TestWriterDigestGolden pins the text writers that read a graph's tasks,
// orders and edges: WriteJSON, WriteDOT and stg.Write on every graph, and
// the schedule renderers (sched.Gantt, trace.WriteScheduleCSV,
// trace.WriteChromeTrace, plot.GanttSVG) on its incremental analysis. The
// graphs are the paper's two figures, the avionics case study and the
// differential corpus, several of whose graphs leave a core idle (WriteJSON
// writes that core's order as null).
func TestWriterDigestGolden(t *testing.T) {
	graphs := []*model.Graph{gen.Figure1(), gen.Figure2(), gen.Avionics()}
	opts := []sched.Options{{}, {}, {}}
	for ci, p := range diffCorpus() {
		graphs = append(graphs, gen.MustLayered(p))
		opts = append(opts, corpusOpts(ci))
	}
	inc := engine.MustNew(engine.Incremental)
	h := sha256.New()
	for gi, g := range graphs {
		fmt.Fprintf(h, "graph %d\n", gi)
		for _, write := range []func(io.Writer) error{g.WriteJSON, g.WriteDOT, func(w io.Writer) error { return stg.Write(w, g) }} {
			if err := write(h); err != nil {
				t.Fatalf("graph %d: %v", gi, err)
			}
		}
		img, err := engine.Compile(g, opts[gi])
		if err != nil {
			t.Fatalf("graph %d: compile: %v", gi, err)
		}
		res, err := inc.Analyze(context.Background(), img)
		if err != nil {
			fmt.Fprintf(h, "error: %v\n", err)
			continue
		}
		io.WriteString(h, sched.Gantt(g, res, 72))
		for _, write := range []func(io.Writer) error{
			func(w io.Writer) error { return trace.WriteScheduleCSV(w, g, res) },
			func(w io.Writer) error { return trace.WriteChromeTrace(w, g, res) },
			func(w io.Writer) error { return plot.GanttSVG(w, g, res, 900) },
		} {
			if err := write(h); err != nil {
				t.Fatalf("graph %d: %v", gi, err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != writerDigest {
		t.Fatalf("writer digest %s, want %s", got, writerDigest)
	}
}
