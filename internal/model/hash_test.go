package model

import (
	"regexp"
	"testing"
)

func hashTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(2, 2)
	b.AddTask(TaskSpec{Name: "a", WCET: 4, Core: 0, Local: 3})
	b.AddTask(TaskSpec{Name: "b", WCET: 2, Core: 1, Local: 1})
	b.AddTask(TaskSpec{Name: "c", WCET: 5, Core: 0, MinRelease: 1})
	b.AddEdge(0, 1, 2)
	return b.MustBuild()
}

func TestFingerprintDeterministicAndWellFormed(t *testing.T) {
	g := hashTestGraph(t)
	fp := g.Fingerprint()
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(fp) {
		t.Fatalf("fingerprint %q is not hex sha256", fp)
	}
	if fp != g.Fingerprint() {
		t.Fatal("fingerprint not deterministic across calls")
	}
	if fp != hashTestGraph(t).Fingerprint() {
		t.Fatal("fingerprint not deterministic across builds")
	}
	if fp != g.Clone().Fingerprint() {
		t.Fatal("clone changed the fingerprint")
	}
}

func TestFingerprintIgnoresNames(t *testing.T) {
	g := hashTestGraph(t)
	b := NewBuilder(2, 2)
	b.AddTask(TaskSpec{Name: "renamed", WCET: 4, Core: 0, Local: 3})
	b.AddTask(TaskSpec{Name: "also-renamed", WCET: 2, Core: 1, Local: 1})
	b.AddTask(TaskSpec{WCET: 5, Core: 0, MinRelease: 1})
	b.AddEdge(0, 1, 2)
	if g.Fingerprint() != b.MustBuild().Fingerprint() {
		t.Fatal("task names should not affect the fingerprint")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := hashTestGraph(t).Fingerprint()

	mutations := map[string]func() *Graph{
		"wcet": func() *Graph {
			b := NewBuilder(2, 2)
			b.AddTask(TaskSpec{WCET: 5, Core: 0, Local: 3})
			b.AddTask(TaskSpec{WCET: 2, Core: 1, Local: 1})
			b.AddTask(TaskSpec{WCET: 5, Core: 0, MinRelease: 1})
			b.AddEdge(0, 1, 2)
			return b.MustBuild()
		},
		"edge volume": func() *Graph {
			b := NewBuilder(2, 2)
			b.AddTask(TaskSpec{WCET: 4, Core: 0, Local: 3})
			b.AddTask(TaskSpec{WCET: 2, Core: 1, Local: 1})
			b.AddTask(TaskSpec{WCET: 5, Core: 0, MinRelease: 1})
			b.AddEdge(0, 1, 3)
			return b.MustBuild()
		},
		"platform": func() *Graph {
			b := NewBuilder(2, 1)
			b.AddTask(TaskSpec{WCET: 4, Core: 0, Local: 3})
			b.AddTask(TaskSpec{WCET: 2, Core: 1, Local: 1})
			b.AddTask(TaskSpec{WCET: 5, Core: 0, MinRelease: 1})
			b.AddEdge(0, 1, 2)
			return b.MustBuild()
		},
	}
	for name, build := range mutations {
		if build().Fingerprint() == base {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}

	// Order changes matter: the schedulers consume orders directly.
	g := hashTestGraph(t)
	g.SwapOrder(0, 0)
	if g.Fingerprint() == base {
		t.Error("order swap did not change the fingerprint")
	}
	g.SwapOrder(0, 0)
	if g.Fingerprint() != base {
		t.Error("undoing the swap did not restore the fingerprint")
	}
}

// TestFingerprintAllocsConstant: a full fingerprint allocates a fixed
// handful of objects (digest, serializer, sum, hex encoding) whatever the
// graph size — the serialization batches integers through one buffer
// instead of handing the digest an escaping 8-byte array per integer.
func TestFingerprintAllocsConstant(t *testing.T) {
	const maxAllocs = 5
	for _, n := range []int{16, 1024} {
		b := NewBuilder(4, 4)
		for i := 0; i < n; i++ {
			b.AddTask(TaskSpec{WCET: 3, Core: CoreID(i % 4), Local: 1})
			if i > 0 {
				b.AddEdge(TaskID(i-1), TaskID(i), 2)
			}
		}
		g := b.MustBuild()
		if avg := testing.AllocsPerRun(10, func() { g.Fingerprint() }); avg > maxAllocs {
			t.Errorf("Fingerprint at %d tasks allocates %.0f objects, want ≤ %d", n, avg, maxAllocs)
		}
	}
}
