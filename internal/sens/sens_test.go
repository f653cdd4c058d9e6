package sens

import (
	"context"
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

func TestMaxWCETScaleFigure1(t *testing.T) {
	g := gen.Figure1() // makespan 7 under RR
	// Deadline 14 ≈ double the nominal makespan: the scale must land
	// between 1000 and the cap, and scaling by the result must be
	// feasible while result+1 is not.
	scale, err := MaxWCETScale(context.Background(), g, sched.Options{}, 14)
	if err != nil {
		t.Fatalf("MaxWCETScale: %v", err)
	}
	if scale < 1000 || scale >= scaleCap {
		t.Fatalf("scale = %d", scale)
	}
	check := func(p int64) bool {
		c := g.Clone()
		scaleWCETs(c, p)
		_, err := schedule(c, sched.Options{Deadline: 14})
		return err == nil
	}
	if !check(scale) {
		t.Errorf("reported scale %d infeasible", scale)
	}
	if check(scale + 1) {
		t.Errorf("scale %d+1 still feasible — not maximal", scale)
	}
}

func TestMaxWCETScaleBelowNominal(t *testing.T) {
	g := gen.Figure1()
	// Deadline 5 < nominal makespan 7: only a shrunken system fits.
	scale, err := MaxWCETScale(context.Background(), g, sched.Options{}, 5)
	if err != nil {
		t.Fatalf("MaxWCETScale: %v", err)
	}
	if scale >= 1000 || scale == 0 {
		t.Fatalf("scale = %d, want in (0, 1000)", scale)
	}
}

func TestMaxWCETScaleInfeasible(t *testing.T) {
	b := model.NewBuilder(1, 1)
	b.AddTask(model.TaskSpec{WCET: 10, MinRelease: 100})
	g := b.MustBuild()
	// Even zero WCET cannot beat the minimal release.
	if _, err := MaxWCETScale(context.Background(), g, sched.Options{}, 50); err == nil || !strings.Contains(err.Error(), "scale 0") {
		t.Fatalf("err = %v", err)
	}
}

func TestMaxWCETScaleUnconstrained(t *testing.T) {
	b := model.NewBuilder(1, 1)
	b.AddTask(model.TaskSpec{WCET: 1})
	g := b.MustBuild()
	scale, err := MaxWCETScale(context.Background(), g, sched.Options{}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if scale != scaleCap {
		t.Fatalf("scale = %d, want cap %d", scale, scaleCap)
	}
}

func TestMaxDemandScale(t *testing.T) {
	// Two contending tasks: growing demands grows interference only.
	b := model.NewBuilder(2, 1)
	b.AddTask(model.TaskSpec{WCET: 20, Core: 0, Local: 10})
	b.AddTask(model.TaskSpec{WCET: 20, Core: 1, Local: 10})
	g := b.MustBuild()
	// Nominal makespan: 20 + min(10,10) = 30. Deadline 40 allows demand
	// growth until interference adds 20: min(d, d) = 20 → demand 20 →
	// scale 2000.
	scale, err := MaxDemandScale(context.Background(), g, sched.Options{}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 2000 {
		t.Fatalf("demand scale = %d, want 2000", scale)
	}
	if _, err := MaxDemandScale(context.Background(), g, sched.Options{}, 0); err == nil {
		t.Error("zero deadline accepted")
	}
}

func TestCriticality(t *testing.T) {
	g := gen.Figure1()
	slacks, err := Criticality(context.Background(), g, sched.Options{}, 10) // makespan 7, 3 spare
	if err != nil {
		t.Fatalf("Criticality: %v", err)
	}
	if len(slacks) != g.NumTasks() {
		t.Fatalf("%d entries", len(slacks))
	}
	// Every slack must be exact: adding slack is feasible, slack+1 is not
	// (unless capped).
	for _, s := range slacks {
		c := g.Clone()
		c.WCET[s.Task] += s.Slack
		if _, err := schedule(c, sched.Options{Deadline: 10}); err != nil {
			t.Errorf("%s: slack %d infeasible", s.Task, s.Slack)
		}
		c = g.Clone()
		c.WCET[s.Task] += s.Slack + 1
		if _, err := schedule(c, sched.Options{Deadline: 10}); err == nil {
			t.Errorf("%s: slack %d not maximal", s.Task, s.Slack)
		}
	}
	// n2 and n4 finish at 7 with deadline 10: their own growth is
	// bounded by 3; n3 (critical path into n4) likewise.
	if slacks[2].Slack != 3 {
		t.Errorf("slack[n2] = %d, want 3", slacks[2].Slack)
	}
}

func TestCriticalityInfeasibleNominal(t *testing.T) {
	g := gen.Figure1()
	if _, err := Criticality(context.Background(), g, sched.Options{}, 6); err == nil {
		t.Fatal("infeasible nominal accepted")
	}
}
