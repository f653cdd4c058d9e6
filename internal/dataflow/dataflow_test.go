package dataflow

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/mapper"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

// producerConsumer: A produces 2 tokens per firing, B consumes 3 → q = (3, 2).
func producerConsumer() *Graph {
	g := &Graph{}
	a := g.AddActor(Actor{Name: "A", WCET: 10, Local: 4})
	b := g.AddActor(Actor{Name: "B", WCET: 20, Local: 6})
	g.AddChannel(Channel{From: a, To: b, Produce: 2, Consume: 3, TokenWords: 5})
	return g
}

func TestRepetitionsRational(t *testing.T) {
	reps, err := producerConsumer().Repetitions()
	if err != nil {
		t.Fatalf("Repetitions: %v", err)
	}
	if reps[0] != 3 || reps[1] != 2 {
		t.Fatalf("reps = %v, want [3 2]", reps)
	}
}

func TestRepetitionsHomogeneous(t *testing.T) {
	// Single-rate graphs have the all-ones vector.
	g := &Graph{}
	a := g.AddActor(Actor{Name: "A", WCET: 1})
	b := g.AddActor(Actor{Name: "B", WCET: 1})
	c := g.AddActor(Actor{Name: "C", WCET: 1})
	g.AddChannel(Channel{From: a, To: b, Produce: 1, Consume: 1})
	g.AddChannel(Channel{From: b, To: c, Produce: 1, Consume: 1})
	reps, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reps {
		if r != 1 {
			t.Errorf("reps[%d] = %d, want 1", i, r)
		}
	}
}

func TestRepetitionsInconsistent(t *testing.T) {
	// A→B with 1:1 and a second channel with 2:1 cannot balance.
	g := &Graph{}
	a := g.AddActor(Actor{Name: "A", WCET: 1})
	b := g.AddActor(Actor{Name: "B", WCET: 1})
	g.AddChannel(Channel{From: a, To: b, Produce: 1, Consume: 1})
	g.AddChannel(Channel{From: a, To: b, Produce: 2, Consume: 1})
	if _, err := g.Repetitions(); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("err = %v, want inconsistency", err)
	}
}

func TestRepetitionsSmallestVector(t *testing.T) {
	// Rates 4:2 reduce to q = (1, 2), not (2, 4).
	g := &Graph{}
	a := g.AddActor(Actor{Name: "A", WCET: 1})
	b := g.AddActor(Actor{Name: "B", WCET: 1})
	g.AddChannel(Channel{From: a, To: b, Produce: 4, Consume: 2})
	reps, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	if reps[0] != 1 || reps[1] != 2 {
		t.Fatalf("reps = %v, want [1 2]", reps)
	}
}

func TestRepetitionsDisconnected(t *testing.T) {
	g := &Graph{}
	g.AddActor(Actor{Name: "A", WCET: 1})
	g.AddActor(Actor{Name: "B", WCET: 1})
	reps, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	if reps[0] != 1 || reps[1] != 1 {
		t.Fatalf("reps = %v", reps)
	}
}

func TestExpandProducerConsumer(t *testing.T) {
	p, err := producerConsumer().Expand(2, 2)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// 3 firings of A + 2 of B.
	if len(p.Specs) != 5 {
		t.Fatalf("%d tasks, want 5", len(p.Specs))
	}
	names := map[string]bool{}
	for _, s := range p.Specs {
		names[s.Name] = true
	}
	for _, want := range []string{"A#0", "A#1", "A#2", "B#0", "B#1"} {
		if !names[want] {
			t.Errorf("missing firing %s", want)
		}
	}
	// Token flow: B#0 consumes tokens 0..2 (produced by A#0 A#0 A#1);
	// B#1 consumes 3..5 (A#1 A#2 A#2). Edges: A0→B0 (2 tokens), A1→B0 (1),
	// A1→B1 (1), A2→B1 (2); volumes ×5 words.
	type e struct{ from, to int }
	vol := map[e]int64{}
	for _, edge := range p.Edges {
		vol[e{edge.From, edge.To}] = int64(edge.Words)
	}
	want := map[e]int64{
		{0, 3}: 10, {1, 3}: 5, {1, 4}: 5, {2, 4}: 10,
	}
	if len(vol) != len(want) {
		t.Fatalf("edges = %v, want %v", vol, want)
	}
	for k, v := range want {
		if vol[k] != v {
			t.Errorf("edge %v volume %d, want %d", k, vol[k], v)
		}
	}
}

func TestExpandInitialTokensCutDependencies(t *testing.T) {
	// A 1:1 self-loop cycle A→B→A with one initial token on B→A: the
	// iteration starts with A (fed by the delay), so expansion is acyclic
	// with the B→A dependency absorbed by the initial token.
	g := &Graph{}
	a := g.AddActor(Actor{Name: "A", WCET: 1})
	b := g.AddActor(Actor{Name: "B", WCET: 1})
	g.AddChannel(Channel{From: a, To: b, Produce: 1, Consume: 1, TokenWords: 1})
	g.AddChannel(Channel{From: b, To: a, Produce: 1, Consume: 1, Initial: 1, TokenWords: 1})
	p, err := g.Expand(2, 2)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(p.Edges) != 1 || p.Edges[0].From != 0 || p.Edges[0].To != 1 {
		t.Fatalf("edges = %v, want single A→B", p.Edges)
	}
}

func TestExpandDeadlock(t *testing.T) {
	// The same cycle without initial tokens deadlocks.
	g := &Graph{}
	a := g.AddActor(Actor{Name: "A", WCET: 1})
	b := g.AddActor(Actor{Name: "B", WCET: 1})
	g.AddChannel(Channel{From: a, To: b, Produce: 1, Consume: 1})
	g.AddChannel(Channel{From: b, To: a, Produce: 1, Consume: 1})
	if _, err := g.Expand(1, 1); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestCompileEndToEnd(t *testing.T) {
	// Multirate pipeline through the whole stack: SDF → expansion →
	// mapping → interference analysis.
	g := &Graph{}
	src := g.AddActor(Actor{Name: "src", WCET: 50, Local: 20})
	fir := g.AddActor(Actor{Name: "fir", WCET: 80, Local: 30})
	dec := g.AddActor(Actor{Name: "decimate", WCET: 60, Local: 25})
	sink := g.AddActor(Actor{Name: "sink", WCET: 40, Local: 15})
	g.AddChannel(Channel{From: src, To: fir, Produce: 1, Consume: 1, TokenWords: 4})
	g.AddChannel(Channel{From: fir, To: dec, Produce: 2, Consume: 4, TokenWords: 4})
	g.AddChannel(Channel{From: dec, To: sink, Produce: 1, Consume: 1, TokenWords: 8})

	mg, err := g.Compile(4, 4, mapper.ListScheduling{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// q = (2, 2, 1, 1): 6 tasks.
	if mg.NumTasks() != 6 {
		t.Fatalf("%d tasks, want 6", mg.NumTasks())
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
}

func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		g    func() *Graph
	}{
		{"empty", func() *Graph { return &Graph{} }},
		{"bad channel range", func() *Graph {
			g := &Graph{}
			g.AddActor(Actor{WCET: 1})
			g.AddChannel(Channel{From: 0, To: 5, Produce: 1, Consume: 1})
			return g
		}},
		{"zero rate", func() *Graph {
			g := &Graph{}
			a := g.AddActor(Actor{WCET: 1})
			b := g.AddActor(Actor{WCET: 1})
			g.AddChannel(Channel{From: a, To: b, Produce: 0, Consume: 1})
			return g
		}},
		{"negative initial", func() *Graph {
			g := &Graph{}
			a := g.AddActor(Actor{WCET: 1})
			b := g.AddActor(Actor{WCET: 1})
			g.AddChannel(Channel{From: a, To: b, Produce: 1, Consume: 1, Initial: -1})
			return g
		}},
		{"negative cost", func() *Graph {
			g := &Graph{}
			g.AddActor(Actor{WCET: -1})
			return g
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.g().Repetitions(); err == nil {
				t.Fatal("invalid graph accepted")
			}
		})
	}
}

func TestDefaultActorNames(t *testing.T) {
	g := &Graph{}
	g.AddActor(Actor{WCET: 1})
	if _, err := g.Repetitions(); err != nil {
		t.Fatal(err)
	}
	if g.Actors[0].Name != "actor0" {
		t.Errorf("name = %q", g.Actors[0].Name)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := producerConsumer()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	r1, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g2.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatal("round trip lost actors")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("repetitions differ: %v vs %v", r1, r2)
		}
	}
	if g2.Channels[0].TokenWords != 5 {
		t.Errorf("token size lost: %+v", g2.Channels[0])
	}
}

func TestReadJSONDefaultsRates(t *testing.T) {
	src := `{"actors":[{"name":"a","wcet":1},{"name":"b","wcet":1}],
		"channels":[{"from":0,"to":1}]}`
	g, err := ReadJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Channels[0].Produce != 1 || g.Channels[0].Consume != 1 {
		t.Fatalf("rates not defaulted: %+v", g.Channels[0])
	}
}

func TestReadJSONRejectsUnknownFields(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}
