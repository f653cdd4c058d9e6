package stg

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/mapper"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

// sample is a 5-task STG: dummy source 0, diamond 1-2-3, dummy sink 4.
const sample = `
5
0 0 0
1 10 1 0
2 20 1 0
3 15 2 1 2
4 0 1 3
# comment trailer
`

func TestRead(t *testing.T) {
	g, err := Read(strings.NewReader(sample))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g.Tasks() != 5 {
		t.Fatalf("tasks = %d", g.Tasks())
	}
	if g.ProcTimes[2] != 20 {
		t.Errorf("proc[2] = %d", g.ProcTimes[2])
	}
	if len(g.Preds[3]) != 2 || g.Preds[3][0] != 1 || g.Preds[3][1] != 2 {
		t.Errorf("preds[3] = %v", g.Preds[3])
	}
	if len(g.Preds[0]) != 0 {
		t.Errorf("source has predecessors: %v", g.Preds[0])
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          ``,
		"bad count":      `x`,
		"truncated":      "3\n0 1 0\n",
		"short line":     "1\n0 1\n",
		"bad id":         "1\nx 1 0\n",
		"id range":       "1\n7 1 0\n",
		"duplicate":      "2\n0 1 0\n0 1 0\n",
		"bad proc":       "1\n0 -5 0\n",
		"bad npreds":     "1\n0 1 x\n",
		"pred mismatch":  "1\n0 1 2 0\n",
		"pred range":     "2\n0 1 0\n1 1 1 9\n",
		"negative preds": "1\n0 1 -1\n",
		// 2^40+1: finite, parseable, but past the model.MaxInput overflow
		// guard shared with the JSON loader.
		"huge proc": "1\n0 1099511627777 0\n",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(src)); err == nil {
				t.Fatalf("accepted %q", src)
			}
		})
	}
}

// TestToProblemRejectsBadRanges pins the synthesis-range hardening: inverted,
// negative and overflow-scale ranges are rejected with a diagnostic instead
// of synthesizing access counts that model.Validate later rejects (or worse,
// accepts into overflowing accumulation).
func TestToProblemRejectsBadRanges(t *testing.T) {
	g, err := Read(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]SynthesisParams{
		"inverted acc":   {AccMin: 10, AccMax: 5, WriteMin: 0, WriteMax: 1},
		"inverted write": {AccMin: 0, AccMax: 1, WriteMin: 10, WriteMax: 5},
		"negative acc":   {AccMin: -5, AccMax: 5, WriteMin: 0, WriteMax: 1},
		"negative write": {AccMin: 0, AccMax: 1, WriteMin: -5, WriteMax: 5},
		"acc overflow":   {AccMin: 0, AccMax: model.MaxInput + 1, WriteMin: 0, WriteMax: 1},
		"write overflow": {AccMin: 0, AccMax: 1, WriteMin: 0, WriteMax: model.MaxInput + 1},
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := g.ToProblem(4, 4, p); err == nil {
				t.Fatalf("accepted synthesis params %+v", p)
			}
		})
	}
	// The bound itself remains legal.
	ok := SynthesisParams{AccMin: 0, AccMax: model.MaxInput, WriteMin: 0, WriteMax: model.MaxInput, Seed: 1}
	if _, err := g.ToProblem(4, 4, ok); err != nil {
		t.Fatalf("ranges at MaxInput must be accepted: %v", err)
	}
}

func TestToProblemAndSchedule(t *testing.T) {
	g, err := Read(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	prob, err := g.ToProblem(2, 2, DefaultSynthesis())
	if err != nil {
		t.Fatalf("ToProblem: %v", err)
	}
	// Dummies keep zero cost and demand.
	if prob.Specs[0].WCET != 0 || prob.Specs[0].Local != 0 {
		t.Errorf("dummy source = %+v", prob.Specs[0])
	}
	if prob.Specs[1].Local < 250 || prob.Specs[1].Local > 550 {
		t.Errorf("synthesized accesses %d outside paper range", prob.Specs[1].Local)
	}
	mg, err := mapper.Map(prob, mapper.ListScheduling{})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	img, err := engine.Compile(mg, sched.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res, err := engine.MustNew(engine.Incremental).Analyze(context.Background(), img)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if err := sched.Check(mg, sched.Options{}, res); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// Critical path 10||20 then 15: ≥ 35 plus interference.
	if res.Makespan < 35 {
		t.Errorf("makespan = %d", res.Makespan)
	}
}

func TestToProblemDeterministic(t *testing.T) {
	g, err := Read(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	a, err := g.ToProblem(2, 2, DefaultSynthesis())
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.ToProblem(2, 2, DefaultSynthesis())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Specs {
		if a.Specs[i].Local != b.Specs[i].Local {
			t.Fatal("same seed produced different synthesis")
		}
	}
	if _, err := g.ToProblem(2, 2, SynthesisParams{AccMin: 10, AccMax: 5}); err == nil {
		t.Error("bad ranges accepted")
	}
}

func TestWriteRoundTrip(t *testing.T) {
	orig := gen.Figure1()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatalf("Write: %v", err)
	}
	parsed, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read back: %v", err)
	}
	if parsed.Tasks() != orig.NumTasks() {
		t.Fatalf("tasks = %d", parsed.Tasks())
	}
	for i := 0; i < orig.NumTasks(); i++ {
		if parsed.ProcTimes[i] != orig.Task(model.TaskID(i)).WCET {
			t.Errorf("proc[%d] = %d", i, parsed.ProcTimes[i])
		}
	}
	// Edge count preserved.
	edges := 0
	for _, p := range parsed.Preds {
		edges += len(p)
	}
	if edges != len(orig.Edges()) {
		t.Fatalf("%d edges, want %d", edges, len(orig.Edges()))
	}
}
