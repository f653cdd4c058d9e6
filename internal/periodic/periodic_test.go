package periodic

import (
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

// schedule compiles g under opts and runs one cold analysis with the
// "incremental" engine backend.
func schedule(g *model.Graph, opts sched.Options) (*sched.Result, error) {
	img, err := engine.Compile(g, opts)
	if err != nil {
		return nil, err
	}
	return engine.MustNew(engine.Incremental).Analyze(context.Background(), img)
}

func TestUnrollShape(t *testing.T) {
	g := gen.Figure1()
	u, err := Unroll(g, 10, 3)
	if err != nil {
		t.Fatalf("Unroll: %v", err)
	}
	if u.NumTasks() != 15 {
		t.Fatalf("tasks = %d, want 15", u.NumTasks())
	}
	// 5 intra-iteration edges × 3 + 5 self-dependencies × 2.
	if len(u.Edges()) != 5*3+5*2 {
		t.Fatalf("edges = %d, want 25", len(u.Edges()))
	}
	// Iteration 2's n0 (ID 10) has min release 0 + 2·10.
	if got := u.Task(10).MinRelease; got != 20 {
		t.Errorf("minRelease@2 = %d, want 20", got)
	}
	if name := u.Task(10).Name; name != "n0@2" {
		t.Errorf("name = %q", name)
	}
	if err := u.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestUnrollSingleIterationIsIdentity(t *testing.T) {
	g := gen.Figure1()
	u, err := Unroll(g, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumTasks() != g.NumTasks() || len(u.Edges()) != len(g.Edges()) {
		t.Fatal("single-iteration unroll changed the graph")
	}
	if u.Task(0).Name != "n0" {
		t.Errorf("name = %q, want unsuffixed", u.Task(0).Name)
	}
	opts := sched.Options{Arbiter: arbiter.NewRoundRobin(1)}
	a, err := schedule(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("unrolled schedule differs: %s", a.Diff(b))
	}
}

func TestPeriodicFigure1(t *testing.T) {
	g := gen.Figure1()
	const period = 10
	const iterations = 4
	u, err := Unroll(g, period, iterations)
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedule(u, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
	if err != nil {
		t.Fatal(err)
	}
	// The single-iteration makespan is 7 < 10, and iterations don't
	// overlap (releases at 0, 10, 20, 30): every iteration spans exactly
	// [k·10, k·10+7].
	spans := IterationMakespans(res, g.NumTasks(), iterations)
	for k, fin := range spans {
		if want := model.Cycles(k*period + 7); fin != want {
			t.Errorf("iteration %d finishes at %d, want %d", k, fin, want)
		}
	}
	if viol := CheckDeadlines(res, g.NumTasks(), iterations, period); viol != -1 {
		t.Errorf("deadline violation at iteration %d", viol)
	}
	if slack := SteadyStateSlack(res, g.NumTasks(), iterations, period); slack != 3 {
		t.Errorf("steady-state slack = %d, want 3", slack)
	}
}

func TestPeriodicOverloadDetected(t *testing.T) {
	// Period 6 < single-iteration makespan 7: with non-pipelinable
	// structure (every core used every iteration in order), iterations
	// fall progressively behind and the deadline check flags it.
	g := gen.Figure1()
	u, err := Unroll(g, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedule(u, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
	if err != nil {
		t.Fatal(err)
	}
	if viol := CheckDeadlines(res, g.NumTasks(), 4, 6); viol == -1 {
		t.Error("overload not detected at period 6 < makespan 7")
	}
	if slack := SteadyStateSlack(res, g.NumTasks(), 4, 6); slack >= 0 {
		t.Errorf("steady-state slack = %d, want negative under overload", slack)
	}
}

func TestPipelinedIterationsInterfere(t *testing.T) {
	// Two independent tasks on different cores sharing a bank; period
	// shorter than their WCETs would overlap iterations of *different*
	// tasks — the unrolled analysis must pick up that cross-iteration
	// interference.
	b := model.NewBuilder(2, 1)
	b.AddTask(model.TaskSpec{Name: "a", WCET: 10, Core: 0, Local: 8})
	b.AddTask(model.TaskSpec{Name: "bb", WCET: 30, Core: 1, Local: 8})
	g := b.MustBuild()
	u, err := Unroll(g, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedule(u, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
	if err != nil {
		t.Fatal(err)
	}
	// bb@0 runs [0, 30+I); a@1 releases at 12 and must interfere with it.
	bb0 := model.TaskID(1)
	a1 := model.TaskID(2)
	if !res.Overlaps(bb0, a1) {
		t.Fatalf("expected pipelined overlap: bb@0 %v, a@1 %v",
			[2]model.Cycles{res.Release[bb0], res.Finish(bb0)},
			[2]model.Cycles{res.Release[a1], res.Finish(a1)})
	}
	if res.Interference[bb0] == 0 {
		t.Error("cross-iteration interference not accounted")
	}
	if err := sched.Check(u, sched.Options{Arbiter: arbiter.NewRoundRobin(1)}, res); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestUnrollErrors(t *testing.T) {
	g := gen.Figure1()
	if _, err := Unroll(g, 10, 0); err == nil || !strings.Contains(err.Error(), "iterations") {
		t.Errorf("zero iterations: %v", err)
	}
	if _, err := Unroll(g, -1, 2); err == nil || !strings.Contains(err.Error(), "period") {
		t.Errorf("negative period: %v", err)
	}
}
