package incremental

import (
	"context"
	"errors"
	"testing"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// schedule is the cold reference run of this package's tests: compile g
// under opts and analyze it once through the engine.
func schedule(g *model.Graph, opts sched.Options) (*sched.Result, error) {
	img, err := engine.Compile(g, opts)
	if err != nil {
		return nil, err
	}
	return engine.MustNew(engine.Incremental).Analyze(context.Background(), img)
}

// TestFigure1 reproduces experiment E1: the paper's worked example must
// yield exactly the published schedule — interference 1, 1, 0, 2, 0 on
// n0..n4 and a global WCRT of 7 cycles under the round-robin arbiter.
func TestFigure1(t *testing.T) {
	g := gen.Figure1()
	res, err := schedule(g, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	wantRelease := []model.Cycles{0, 3, 6, 0, 5}
	wantInter := []model.Cycles{1, 1, 0, 2, 0}
	for i := range wantRelease {
		if res.Release[i] != wantRelease[i] {
			t.Errorf("release[n%d] = %d, want %d", i, res.Release[i], wantRelease[i])
		}
		if res.Interference[i] != wantInter[i] {
			t.Errorf("interference[n%d] = %d, want %d (paper Figure 1)", i, res.Interference[i], wantInter[i])
		}
	}
	if res.Makespan != 7 {
		t.Errorf("makespan = %d, want 7 (paper Figure 1 bottom)", res.Makespan)
	}
	if err := sched.Check(g, sched.Options{Arbiter: arbiter.NewRoundRobin(1)}, res); err != nil {
		t.Errorf("Check: %v", err)
	}
}

// TestFigure1NoInterference reproduces the top half of Figure 1: ignoring
// interference the same task set spans only 6 cycles.
func TestFigure1NoInterference(t *testing.T) {
	g := gen.Figure1()
	res, err := schedule(g, sched.Options{Arbiter: arbiter.NewNone()})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.Makespan != 6 {
		t.Errorf("makespan = %d, want 6 (paper Figure 1 top)", res.Makespan)
	}
	wantRelease := []model.Cycles{0, 2, 4, 0, 4}
	for i := range wantRelease {
		if res.Release[i] != wantRelease[i] {
			t.Errorf("release[n%d] = %d, want %d", i, res.Release[i], wantRelease[i])
		}
		if res.Interference[i] != 0 {
			t.Errorf("interference[n%d] = %d, want 0", i, res.Interference[i])
		}
	}
}

// TestFigure2Partition reproduces experiment E2: at the cursor event t = 5
// on the Figure 2 task set, the algorithm closes n6, keeps n0, n4 and n9
// alive, and opens n7 — the running example of Section IV.
func TestFigure2Partition(t *testing.T) {
	g := gen.Figure2()
	byName := make(map[string]model.TaskID)
	for i := 0; i < g.NumTasks(); i++ {
		byName[g.Name(model.TaskID(i))] = model.TaskID(i)
	}

	var closedAt5, openedAt5 []model.TaskID
	aliveNow := make(map[model.TaskID]bool)
	var aliveJustBefore5 []model.TaskID
	res, err := schedule(g, sched.Options{Trace: func(e sched.Event) {
		switch e.Kind {
		case sched.EventCursor:
			if e.Time == 5 {
				for id := range aliveNow {
					aliveJustBefore5 = append(aliveJustBefore5, id)
				}
			}
		case sched.EventOpen:
			aliveNow[e.Task] = true
			if e.Time == 5 {
				openedAt5 = append(openedAt5, e.Task)
			}
		case sched.EventClose:
			delete(aliveNow, e.Task)
			if e.Time == 5 {
				closedAt5 = append(closedAt5, e.Task)
			}
		}
	}})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}

	if len(closedAt5) != 1 || closedAt5[0] != byName["n6"] {
		t.Errorf("C at t=5 = %v, want {n6}", closedAt5)
	}
	if len(openedAt5) != 1 || openedAt5[0] != byName["n7"] {
		t.Errorf("O at t=5 = %v, want {n7}", openedAt5)
	}
	// Alive just before the event: n0, n4, n6, n9 (n6 about to close).
	wantAlive := map[model.TaskID]bool{
		byName["n0"]: true, byName["n4"]: true, byName["n6"]: true, byName["n9"]: true,
	}
	if len(aliveJustBefore5) != len(wantAlive) {
		t.Errorf("alive before t=5 = %v, want n0, n4, n6, n9", aliveJustBefore5)
	}
	for _, id := range aliveJustBefore5 {
		if !wantAlive[id] {
			t.Errorf("unexpected alive task %s before t=5", id)
		}
	}
	if err := sched.Check(g, sched.Options{}, res); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestSingleTask(t *testing.T) {
	b := model.NewBuilder(1, 1)
	b.AddTask(model.TaskSpec{WCET: 5, Local: 100})
	g := b.MustBuild()
	res, err := schedule(g, sched.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.Release[0] != 0 || res.Response[0] != 5 || res.Makespan != 5 {
		t.Fatalf("single task schedule wrong: %+v", res)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := model.NewBuilder(2, 2).MustBuild()
	res, err := schedule(g, sched.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.Makespan != 0 {
		t.Fatalf("empty graph makespan = %d", res.Makespan)
	}
}

func TestMinReleaseOnlyGap(t *testing.T) {
	// A single task with a far minimal release: the cursor must jump
	// straight there.
	b := model.NewBuilder(1, 1)
	b.AddTask(model.TaskSpec{WCET: 2, MinRelease: 1000})
	g := b.MustBuild()
	res, err := schedule(g, sched.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.Release[0] != 1000 || res.Makespan != 1002 {
		t.Fatalf("release = %d, makespan = %d", res.Release[0], res.Makespan)
	}
	if res.Iterations > 3 {
		t.Errorf("cursor took %d events for a 2-event schedule", res.Iterations)
	}
}

func TestZeroWCETTasks(t *testing.T) {
	// Zero-length tasks open and close at the same cursor position; the
	// loop must still make progress.
	b := model.NewBuilder(1, 1)
	a := b.AddTask(model.TaskSpec{WCET: 0})
	c := b.AddTask(model.TaskSpec{WCET: 0})
	d := b.AddTask(model.TaskSpec{WCET: 3})
	b.AddEdge(a, c, 0)
	b.AddEdge(c, d, 0)
	g := b.MustBuild()
	res, err := schedule(g, sched.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.Makespan != 3 {
		t.Fatalf("makespan = %d, want 3", res.Makespan)
	}
	if err := sched.Check(g, sched.Options{}, res); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	g := gen.Figure1()
	_, err := schedule(g, sched.Options{Deadline: 6}) // needs 7
	if !errors.Is(err, sched.ErrUnschedulable) {
		t.Fatalf("err = %v, want unschedulable", err)
	}
	var ue *sched.UnschedulableError
	if !errors.As(err, &ue) || ue.Reason != "deadline" {
		t.Fatalf("err = %v, want deadline reason", err)
	}
	// Exactly at the makespan, it must be schedulable.
	if _, err := schedule(g, sched.Options{Deadline: 7}); err != nil {
		t.Fatalf("deadline 7 should be feasible: %v", err)
	}
}

func TestCrossCoreDeadlock(t *testing.T) {
	// Core 0 order: a then b. Core 1 order: c then d. Dependencies d→a and
	// b→c close a cycle through the order edges: a waits for d, d waits
	// for c, c waits for b, b waits for a.
	b := model.NewBuilder(2, 1)
	a := b.AddTask(model.TaskSpec{Name: "a", WCET: 1, Core: 0})
	bb := b.AddTask(model.TaskSpec{Name: "b", WCET: 1, Core: 0})
	c := b.AddTask(model.TaskSpec{Name: "c", WCET: 1, Core: 1})
	d := b.AddTask(model.TaskSpec{Name: "d", WCET: 1, Core: 1})
	b.AddEdge(d, a, 0)
	b.AddEdge(bb, c, 0)
	b.SetOrder(0, []model.TaskID{a, bb})
	b.SetOrder(1, []model.TaskID{c, d})
	g := b.MustBuild()
	_, err := schedule(g, sched.Options{})
	var ue *sched.UnschedulableError
	if !errors.As(err, &ue) || ue.Reason != "deadlock" {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if ue.Task == model.NoTask {
		t.Error("deadlock error should name a blocked task")
	}
}

func TestDeadlockWithPendingMinReleases(t *testing.T) {
	// Same deadlock, but one blocked task has a distant minimal release:
	// the cursor must walk the release events and still detect the
	// deadlock instead of spinning.
	b := model.NewBuilder(2, 1)
	a := b.AddTask(model.TaskSpec{Name: "a", WCET: 1, Core: 0, MinRelease: 50})
	bb := b.AddTask(model.TaskSpec{Name: "b", WCET: 1, Core: 0})
	c := b.AddTask(model.TaskSpec{Name: "c", WCET: 1, Core: 1})
	d := b.AddTask(model.TaskSpec{Name: "d", WCET: 1, Core: 1})
	b.AddEdge(d, a, 0)
	b.AddEdge(bb, c, 0)
	b.SetOrder(0, []model.TaskID{a, bb})
	b.SetOrder(1, []model.TaskID{c, d})
	g := b.MustBuild()
	_, err := schedule(g, sched.Options{})
	if !errors.Is(err, sched.ErrUnschedulable) {
		t.Fatalf("err = %v, want unschedulable", err)
	}
}

func TestInterferenceMonotoneGrowth(t *testing.T) {
	// Three cores all hammering one shared bank simultaneously: pairwise
	// round-robin interference must appear on every task.
	b := model.NewBuilder(3, 1)
	for i := 0; i < 3; i++ {
		b.AddTask(model.TaskSpec{WCET: 10, Core: model.CoreID(i), Local: 8})
	}
	g := b.MustBuild()
	res, err := schedule(g, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	// Paper's Section II.A example: each of the three cores writing 8
	// words is halted 8+8 = 16 cycles.
	for i := 0; i < 3; i++ {
		if res.Interference[i] != 16 {
			t.Errorf("interference[%d] = %d, want 16", i, res.Interference[i])
		}
		if res.Release[i] != 0 {
			t.Errorf("release[%d] = %d, want 0", i, res.Release[i])
		}
	}
	if res.Makespan != 26 {
		t.Errorf("makespan = %d, want 26", res.Makespan)
	}
	if err := sched.Check(g, sched.Options{Arbiter: arbiter.NewRoundRobin(1)}, res); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestLateArrivalExtendsAliveTask(t *testing.T) {
	// A task opening later must add interference to an already-alive task
	// (whose release date nevertheless stays fixed).
	b := model.NewBuilder(2, 1)
	long := b.AddTask(model.TaskSpec{Name: "long", WCET: 100, Core: 0, Local: 50})
	late := b.AddTask(model.TaskSpec{Name: "late", WCET: 10, Core: 1, Local: 20, MinRelease: 40})
	g := b.MustBuild()
	res, err := schedule(g, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	// long: min(20, 50) = 20 interference from late; late: min(50, 20) = 20.
	if res.Release[long] != 0 || res.Interference[long] != 20 {
		t.Errorf("long: rel=%d inter=%d, want 0/20", res.Release[long], res.Interference[long])
	}
	if res.Release[late] != 40 || res.Interference[late] != 20 {
		t.Errorf("late: rel=%d inter=%d, want 40/20", res.Release[late], res.Interference[late])
	}
	if err := sched.Check(g, sched.Options{Arbiter: arbiter.NewRoundRobin(1)}, res); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestNoOverlapNoInterference(t *testing.T) {
	// Sequential dependency: producer and consumer never overlap, so no
	// interference despite sharing a bank.
	b := model.NewBuilder(2, 1)
	p := b.AddTask(model.TaskSpec{WCET: 10, Core: 0, Local: 100})
	c := b.AddTask(model.TaskSpec{WCET: 10, Core: 1, Local: 100})
	b.AddEdge(p, c, 50)
	g := b.MustBuild()
	res, err := schedule(g, sched.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.Interference[p] != 0 || res.Interference[c] != 0 {
		t.Errorf("interference = %d/%d, want 0/0", res.Interference[p], res.Interference[c])
	}
	if res.Makespan != 20 {
		t.Errorf("makespan = %d, want 20", res.Makespan)
	}
}

func TestDisjointBanksNoInterference(t *testing.T) {
	// Per-core banks and no communication: concurrent tasks cannot
	// interfere.
	b := model.NewBuilder(2, 2)
	b.AddTask(model.TaskSpec{WCET: 10, Core: 0, Local: 100})
	b.AddTask(model.TaskSpec{WCET: 10, Core: 1, Local: 100})
	g := b.MustBuild()
	res, err := schedule(g, sched.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.TotalInterference() != 0 {
		t.Errorf("total interference = %d, want 0", res.TotalInterference())
	}
}

func TestReleaseDatesNeverBeforeDependencies(t *testing.T) {
	// Check on a realistic generated graph plus the independent checker.
	g := gen.MustLayered(gen.NewParams(6, 8))
	opts := sched.Options{Arbiter: arbiter.NewRoundRobin(1)}
	res, err := schedule(g, opts)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := sched.Check(g, opts, res); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestAliveSetBoundedByCores(t *testing.T) {
	// The complexity argument requires |A| ≤ cores at all times.
	g := gen.MustLayered(gen.NewParams(8, 12))
	alive := 0
	maxAlive := 0
	_, err := schedule(g, sched.Options{Trace: func(e sched.Event) {
		switch e.Kind {
		case sched.EventOpen:
			alive++
			if alive > maxAlive {
				maxAlive = alive
			}
		case sched.EventClose:
			alive--
		}
	}})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if maxAlive > g.Cores {
		t.Fatalf("alive set reached %d tasks, cores = %d", maxAlive, g.Cores)
	}
}

func TestEventCountLinear(t *testing.T) {
	// The cursor visits at most ~2n events (finish dates + minimal
	// releases), the other half of the complexity argument.
	g := gen.MustLayered(gen.NewParams(10, 10))
	res, err := schedule(g, sched.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	n := g.NumTasks()
	if res.Iterations > 2*n+2 {
		t.Fatalf("%d cursor events for %d tasks, want ≤ 2n+2", res.Iterations, n)
	}
}

func TestGraphNotMutated(t *testing.T) {
	g := gen.Figure1()
	before := g.Clone()
	if _, err := schedule(g, sched.Options{}); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for i := 0; i < g.NumTasks(); i++ {
		id := model.TaskID(i)
		if g.WCET[i] != before.WCET[i] || g.MinRelease[i] != before.MinRelease[i] || g.Local[i] != before.Local[i] {
			t.Fatalf("task %s mutated by scheduling", id)
		}
		for bank, d := range g.DemandRow(id) {
			if d != before.DemandRow(id)[bank] {
				t.Fatalf("task %s demand mutated", id)
			}
		}
	}
}

func TestSeparateCompetitorsMorePessimistic(t *testing.T) {
	// Ablation E7: treating same-core interferers separately must never
	// reduce interference under round-robin (Σ min(w,d) ≥ min(Σw, d)).
	for seed := int64(1); seed <= 10; seed++ {
		p := gen.NewParams(5, 8)
		p.Seed = seed
		p.Cores, p.Banks = 4, 1
		p.SharedBank = true
		g := gen.MustLayered(p)
		merged, err := schedule(g, sched.Options{})
		if err != nil {
			t.Fatalf("seed %d merged: %v", seed, err)
		}
		separate, err := schedule(g, sched.Options{SeparateCompetitors: true})
		if err != nil {
			t.Fatalf("seed %d separate: %v", seed, err)
		}
		if separate.TotalInterference() < merged.TotalInterference() {
			t.Errorf("seed %d: separate interference %d < merged %d — contradicts paper §II.C",
				seed, separate.TotalInterference(), merged.TotalInterference())
		}
		if err := sched.Check(g, sched.Options{SeparateCompetitors: true}, separate); err != nil {
			t.Errorf("seed %d separate check: %v", seed, err)
		}
	}
}

func TestAllArbitersProduceValidSchedules(t *testing.T) {
	arbiters := []arbiter.Arbiter{
		arbiter.NewRoundRobin(1),
		arbiter.NewRoundRobin(3),
		arbiter.NewTreeRR(1, 2, 2),
		arbiter.NewTDM(4, 2),
		arbiter.NewFixedPriority(1),
		arbiter.NewNone(),
	}
	p := gen.NewParams(4, 8)
	p.Cores, p.Banks = 4, 4
	g := gen.MustLayered(p)
	for _, arb := range arbiters {
		opts := sched.Options{Arbiter: arb}
		res, err := schedule(g, opts)
		if err != nil {
			t.Errorf("%s: %v", arb.Name(), err)
			continue
		}
		if err := sched.Check(g, opts, res); err != nil {
			t.Errorf("%s: check: %v", arb.Name(), err)
		}
	}
}
