package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

// schedule compiles g under opts and runs one cold analysis with the
// "incremental" engine backend.
func schedule(g *model.Graph, opts sched.Options) (*sched.Result, error) {
	img, err := engine.Compile(g, opts)
	if err != nil {
		return nil, err
	}
	return engine.MustNew(engine.Incremental).Analyze(context.Background(), img)
}

func recordFigure2(t *testing.T) (*model.Graph, *Recorder, *sched.Result) {
	t.Helper()
	g := gen.Figure2()
	var rec Recorder
	res, err := schedule(g, sched.Options{Trace: rec.Hook()})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return g, &rec, res
}

func TestPartitionAtFigure2(t *testing.T) {
	g, rec, _ := recordFigure2(t)
	// The paper's running example: after the event at t=5, C contains n6
	// (and everything finished before), A = {n0, n4, n7, n9}.
	p := rec.PartitionAt(g, 5)
	aliveNames := map[string]bool{}
	for _, id := range p.Alive {
		aliveNames[g.Name(id)] = true
	}
	for _, want := range []string{"n0", "n4", "n7", "n9"} {
		if !aliveNames[want] {
			t.Errorf("alive at t=5 missing %s (got %v)", want, p.Alive)
		}
	}
	if len(p.Alive) != 4 {
		t.Errorf("alive = %v, want 4 tasks", p.Alive)
	}
	closedNames := map[string]bool{}
	for _, id := range p.Closed {
		closedNames[g.Name(id)] = true
	}
	if !closedNames["n6"] {
		t.Errorf("n6 not closed at t=5: %v", p.Closed)
	}
	if len(p.Closed)+len(p.Alive)+len(p.Future) != g.NumTasks() {
		t.Error("partition does not cover the task set")
	}
	if s := p.String(); !strings.Contains(s, "t=5") {
		t.Errorf("String = %q", s)
	}
}

func TestPartitionBeforeStart(t *testing.T) {
	g, rec, _ := recordFigure2(t)
	p := rec.PartitionAt(g, -1)
	if len(p.Future) != g.NumTasks() {
		t.Errorf("everything must be future before t=0: %+v", p)
	}
}

func TestPartitionAtEnd(t *testing.T) {
	g, rec, res := recordFigure2(t)
	p := rec.PartitionAt(g, res.Makespan)
	if len(p.Closed) != g.NumTasks() {
		t.Errorf("everything must be closed at the makespan: %+v", p)
	}
}

func TestWriteText(t *testing.T) {
	_, rec, _ := recordFigure2(t)
	var buf bytes.Buffer
	if err := rec.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"cursor", "open", "close"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

func TestWriteScheduleCSV(t *testing.T) {
	g := gen.Figure1()
	res, err := schedule(g, sched.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteScheduleCSV(&buf, g, res); err != nil {
		t.Fatalf("WriteScheduleCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != g.NumTasks()+1 {
		t.Fatalf("%d lines, want header + %d tasks", len(lines), g.NumTasks())
	}
	if !strings.HasPrefix(lines[0], "task,name,core,release") {
		t.Errorf("header = %q", lines[0])
	}
	// n3: release 0, wcet 3, interference 2, response 5, finish 5.
	if !strings.Contains(buf.String(), "3,n3,2,0,3,2,5,5") {
		t.Errorf("n3 row missing:\n%s", buf.String())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	g := gen.Figure1()
	res, err := schedule(g, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, g, res); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	// 4 thread-name metadata + 5 task events.
	if len(events) != 9 {
		t.Fatalf("%d events, want 9", len(events))
	}
	var taskEvents, metaEvents int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			taskEvents++
			if e["dur"] == nil || e["name"] == "" {
				t.Errorf("bad task event: %v", e)
			}
		case "M":
			metaEvents++
		}
	}
	if taskEvents != 5 || metaEvents != 4 {
		t.Fatalf("events: %d tasks, %d meta", taskEvents, metaEvents)
	}
}
