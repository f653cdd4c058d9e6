package model

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// chainGraph builds a linear chain of n unit-WCET tasks on a single core.
func chainGraph(t testing.TB, n int) *Graph {
	t.Helper()
	b := NewBuilder(1, 1)
	prev := NoTask
	for i := 0; i < n; i++ {
		id := b.AddTask(TaskSpec{WCET: 1})
		if prev != NoTask {
			b.AddEdge(prev, id, 1)
		}
		prev = id
	}
	return b.MustBuild()
}

func TestTopoSortChain(t *testing.T) {
	g := chainGraph(t, 10)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	for i, id := range order {
		if id != TaskID(i) {
			t.Fatalf("order[%d] = %d, want %d", i, id, i)
		}
	}
}

func TestTopoSortDeterministicTieBreak(t *testing.T) {
	// Independent tasks must come out in ID order.
	b := NewBuilder(4, 4)
	for i := 0; i < 8; i++ {
		b.AddTask(TaskSpec{WCET: 1, Core: CoreID(i % 4)})
	}
	g := b.MustBuild()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	for i, id := range order {
		if id != TaskID(i) {
			t.Fatalf("tie-break order[%d] = %d, want %d", i, id, i)
		}
	}
}

func TestTopoSortPropertyRandomDAGs(t *testing.T) {
	// Property: on random DAGs (edges only from lower to higher ID), the
	// topological order places every task after all its predecessors.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder(4, 4)
		for i := 0; i < n; i++ {
			b.AddTask(TaskSpec{WCET: Cycles(1 + rng.Intn(10)), Core: CoreID(rng.Intn(4))})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(4) == 0 {
					b.AddEdge(TaskID(i), TaskID(j), Accesses(rng.Intn(5)))
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := make([]int, n)
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDepths(t *testing.T) {
	// Diamond: s -> {a, b} -> e
	b := NewBuilder(2, 2)
	s := b.AddTask(TaskSpec{WCET: 1, Core: 0})
	a := b.AddTask(TaskSpec{WCET: 1, Core: 0})
	bb := b.AddTask(TaskSpec{WCET: 1, Core: 1})
	e := b.AddTask(TaskSpec{WCET: 1, Core: 1})
	b.AddEdge(s, a, 0)
	b.AddEdge(s, bb, 0)
	b.AddEdge(a, e, 0)
	b.AddEdge(bb, e, 0)
	g := b.MustBuild()
	depth, err := g.Depths()
	if err != nil {
		t.Fatalf("Depths: %v", err)
	}
	want := []int{0, 1, 1, 2}
	for i, d := range depth {
		if d != want[i] {
			t.Errorf("depth[%d] = %d, want %d", i, d, want[i])
		}
	}
}

func TestCriticalPath(t *testing.T) {
	b := NewBuilder(2, 2)
	s := b.AddTask(TaskSpec{WCET: 3, Core: 0})
	a := b.AddTask(TaskSpec{WCET: 5, Core: 1})
	c := b.AddTask(TaskSpec{WCET: 2, Core: 0})
	b.AddEdge(s, a, 0)
	b.AddEdge(s, c, 0)
	g := b.MustBuild()
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatalf("CriticalPath: %v", err)
	}
	if cp != 8 { // 3 + max(5, 2)
		t.Fatalf("CriticalPath = %d, want 8", cp)
	}
}

func TestCriticalPathHonorsMinRelease(t *testing.T) {
	b := NewBuilder(1, 1)
	b.AddTask(TaskSpec{WCET: 2, MinRelease: 10})
	g := b.MustBuild()
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatalf("CriticalPath: %v", err)
	}
	if cp != 12 {
		t.Fatalf("CriticalPath = %d, want 12", cp)
	}
}

func TestTaskIDHeapOrdering(t *testing.T) {
	var h taskIDHeap
	for _, id := range []TaskID{5, 3, 9, 1, 7, 0, 2} {
		h.push(id)
	}
	want := []TaskID{0, 1, 2, 3, 5, 7, 9}
	for _, w := range want {
		if got := h.pop(); got != w {
			t.Fatalf("pop = %d, want %d", got, w)
		}
	}
}
