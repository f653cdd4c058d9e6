package model

import (
	"strings"
	"testing"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(2, 2)
	a := b.AddTask(TaskSpec{Name: "a", WCET: 10, Core: 0, Local: 5})
	c := b.AddTask(TaskSpec{Name: "c", WCET: 20, Core: 1, MinRelease: 3})
	b.AddEdge(a, c, 7)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumTasks() != 2 {
		t.Fatalf("NumTasks = %d, want 2", g.NumTasks())
	}
	if got := g.Name(a); got != "a" {
		t.Errorf("task a name = %q", got)
	}
	if got := g.MinRelease[c]; got != 3 {
		t.Errorf("minRelease = %d, want 3", got)
	}
	if succs := g.Successors(a); len(succs) != 1 || succs[0] != c {
		t.Errorf("Successors(a) = %v, want [c]", succs)
	}
	if preds := g.Predecessors(c); len(preds) != 1 || preds[0] != a {
		t.Errorf("Predecessors(c) = %v, want [a]", preds)
	}
}

func TestBuilderDefaultNames(t *testing.T) {
	b := NewBuilder(1, 1)
	id := b.AddTask(TaskSpec{WCET: 1})
	g := b.MustBuild()
	if got := g.Name(id); got != "n0" {
		t.Errorf("default name = %q, want n0", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Graph, error)
		want  string
	}{
		{"no cores", func() (*Graph, error) { return NewBuilder(0, 1).Build() }, "at least 1 core"},
		{"no banks", func() (*Graph, error) { return NewBuilder(1, 0).Build() }, "at least 1 core"},
		{"negative wcet", func() (*Graph, error) {
			b := NewBuilder(1, 1)
			b.AddTask(TaskSpec{WCET: -1})
			return b.Build()
		}, "negative WCET"},
		{"core out of range", func() (*Graph, error) {
			b := NewBuilder(2, 1)
			b.AddTask(TaskSpec{WCET: 1, Core: 5})
			return b.Build()
		}, "core 5"},
		{"negative min release", func() (*Graph, error) {
			b := NewBuilder(1, 1)
			b.AddTask(TaskSpec{WCET: 1, MinRelease: -2})
			return b.Build()
		}, "negative minimal release"},
		{"negative local", func() (*Graph, error) {
			b := NewBuilder(1, 1)
			b.AddTask(TaskSpec{WCET: 1, Local: -3})
			return b.Build()
		}, "negative local access"},
		{"edge source range", func() (*Graph, error) {
			b := NewBuilder(1, 1)
			id := b.AddTask(TaskSpec{WCET: 1})
			b.AddEdge(5, id, 0)
			return b.Build()
		}, "source"},
		{"edge target range", func() (*Graph, error) {
			b := NewBuilder(1, 1)
			id := b.AddTask(TaskSpec{WCET: 1})
			b.AddEdge(id, 9, 0)
			return b.Build()
		}, "target"},
		{"self edge", func() (*Graph, error) {
			b := NewBuilder(1, 1)
			id := b.AddTask(TaskSpec{WCET: 1})
			b.AddEdge(id, id, 0)
			return b.Build()
		}, "self-dependency"},
		{"negative volume", func() (*Graph, error) {
			b := NewBuilder(1, 1)
			x := b.AddTask(TaskSpec{WCET: 1})
			y := b.AddTask(TaskSpec{WCET: 1})
			b.AddEdge(x, y, -1)
			return b.Build()
		}, "negative write volume"},
		{"cycle", func() (*Graph, error) {
			b := NewBuilder(1, 1)
			x := b.AddTask(TaskSpec{WCET: 1})
			y := b.AddTask(TaskSpec{WCET: 1})
			b.AddEdge(x, y, 0)
			b.AddEdge(y, x, 0)
			return b.Build()
		}, "cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.build()
			if err == nil {
				t.Fatalf("Build succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestBuilderFirstErrorWins(t *testing.T) {
	b := NewBuilder(1, 1)
	b.AddTask(TaskSpec{WCET: -1})         // first error
	b.AddTask(TaskSpec{WCET: 1, Core: 7}) // second error, must not mask the first
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "negative WCET") {
		t.Fatalf("error = %v, want first error (negative WCET)", err)
	}
}

func TestBuilderExplicitOrder(t *testing.T) {
	b := NewBuilder(1, 1)
	x := b.AddTask(TaskSpec{WCET: 1})
	y := b.AddTask(TaskSpec{WCET: 1})
	// No dependency between x and y: order [y, x] is legal.
	b.SetOrder(0, []TaskID{y, x})
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	order := g.Order(0)
	if len(order) != 2 || order[0] != y || order[1] != x {
		t.Fatalf("Order(0) = %v, want [y x]", order)
	}
}

func TestBuilderOrderContradictsDependency(t *testing.T) {
	b := NewBuilder(1, 1)
	x := b.AddTask(TaskSpec{WCET: 1})
	y := b.AddTask(TaskSpec{WCET: 1})
	b.AddEdge(x, y, 0)
	b.SetOrder(0, []TaskID{y, x})
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("error = %v, want same-core deadlock rejection", err)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic on invalid graph")
		}
	}()
	b := NewBuilder(0, 0)
	b.MustBuild()
}

func TestBuilderTopologicalDefaultOrder(t *testing.T) {
	// Diamond on one core: default order must respect dependencies.
	b := NewBuilder(1, 1)
	s := b.AddTask(TaskSpec{WCET: 1})
	m1 := b.AddTask(TaskSpec{WCET: 1})
	m2 := b.AddTask(TaskSpec{WCET: 1})
	e := b.AddTask(TaskSpec{WCET: 1})
	b.AddEdge(s, m1, 0)
	b.AddEdge(s, m2, 0)
	b.AddEdge(m1, e, 0)
	b.AddEdge(m2, e, 0)
	g := b.MustBuild()
	pos := make(map[TaskID]int)
	for i, id := range g.Order(0) {
		pos[id] = i
	}
	if !(pos[s] < pos[m1] && pos[s] < pos[m2] && pos[m1] < pos[e] && pos[m2] < pos[e]) {
		t.Fatalf("default order %v violates dependencies", g.Order(0))
	}
}
