package sens

import (
	"context"
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
