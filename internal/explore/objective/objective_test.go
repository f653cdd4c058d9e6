package objective

import (
	"context"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" backend
)

// analyzed compiles and analyzes a small 2-core graph with one cross-core
// edge (a on core 0 writes 7 words into c's bank on core 1).
func analyzed(t *testing.T) Eval {
	t.Helper()
	b := model.NewBuilder(2, 2)
	a := b.AddTask(model.TaskSpec{Name: "a", WCET: 10, Core: 0, Local: 4})
	b.AddTask(model.TaskSpec{Name: "x", WCET: 50, Core: 0, Local: 3})
	c := b.AddTask(model.TaskSpec{Name: "c", WCET: 30, Core: 1, Local: 2})
	b.AddEdge(a, c, 7)
	img, err := engine.Compile(b.MustBuild(), sched.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res, err := engine.MustNew(engine.Incremental).Analyze(context.Background(), img)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return Eval{Img: img, Res: res}
}

func TestMakespanScore(t *testing.T) {
	e := analyzed(t)
	if !e.Valid() {
		t.Fatal("eval invalid")
	}
	if got := (Makespan{}).Score(e); got != float64(e.Res.Makespan) {
		t.Fatalf("Score = %g, want %g", got, float64(e.Res.Makespan))
	}
}

func TestPeakBankInterferenceMatchesPerBankSplit(t *testing.T) {
	e := analyzed(t)
	want := 0.0
	for b := 0; b < e.Img.Banks; b++ {
		var sum float64
		for i := range e.Res.PerBank {
			sum += float64(e.Res.PerBank[i][b])
		}
		if sum > want {
			want = sum
		}
	}
	if got := (PeakBankInterference{}).Score(e); got != want {
		t.Fatalf("peak interference %g, want %g", got, want)
	}
}

func TestBankVariance(t *testing.T) {
	e := analyzed(t)
	// Per-core banks: bank 0 carries a+x local (4+3) plus nothing remote;
	// bank 1 carries c's local (2) plus a's 7 written words. Loads {7, 9}:
	// mean 8, variance 1.
	if got := (BankVariance{}).Score(e); got != 1 {
		t.Fatalf("bank variance %g, want 1", got)
	}
}

func TestCommAffinity(t *testing.T) {
	e := analyzed(t)
	// One cross-core edge of 7 words between cores on different banks:
	// charged twice.
	if got := (CommAffinity{}).Score(e); got != 14 {
		t.Fatalf("comm affinity %g, want 14", got)
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 4 {
		t.Fatalf("Names() = %v, want 4 objectives", names)
	}
	for _, name := range names {
		o, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if o.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, o.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName on unknown objective succeeded")
	}
	if got := NamesOf(Default()); len(got) != 3 || got[0] != "makespan" {
		t.Fatalf("default vector names %v", got)
	}
}
