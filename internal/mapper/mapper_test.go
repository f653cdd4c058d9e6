package mapper

import (
	"context"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
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

// diamondProblem: s → {a, b, c} → t with distinct WCETs.
func diamondProblem() *Problem {
	return &Problem{
		Cores: 2, Banks: 2,
		Specs: []Spec{
			{Name: "s", WCET: 10, Local: 5},
			{Name: "a", WCET: 30, Local: 5},
			{Name: "b", WCET: 20, Local: 5},
			{Name: "c", WCET: 10, Local: 5},
			{Name: "t", WCET: 10, Local: 5},
		},
		Edges: []Edge{
			{From: 0, To: 1, Words: 2}, {From: 0, To: 2, Words: 2}, {From: 0, To: 3, Words: 2},
			{From: 1, To: 4, Words: 2}, {From: 2, To: 4, Words: 2}, {From: 3, To: 4, Words: 2},
		},
	}
}

func allStrategies() []Strategy {
	return []Strategy{RoundRobinLayers{}, LoadBalance{}, ListScheduling{}}
}

func TestAllStrategiesProduceSchedulableGraphs(t *testing.T) {
	for _, s := range allStrategies() {
		g, err := Map(diamondProblem(), s)
		if err != nil {
			t.Errorf("%s: %v", s.Name(), err)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: validate: %v", s.Name(), err)
			continue
		}
		res, err := schedule(g, sched.Options{})
		if err != nil {
			t.Errorf("%s: schedule: %v", s.Name(), err)
			continue
		}
		if err := sched.Check(g, sched.Options{}, res); err != nil {
			t.Errorf("%s: check: %v", s.Name(), err)
		}
	}
}

func TestRoundRobinLayersRule(t *testing.T) {
	p := &Problem{
		Cores: 2, Banks: 2,
		Specs: []Spec{{WCET: 1}, {WCET: 1}, {WCET: 1}, {WCET: 1}}, // one layer of 4
	}
	assign, err := RoundRobinLayers{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []model.CoreID{0, 1, 0, 1}
	for i, k := range want {
		if assign[i] != k {
			t.Errorf("task %d on core %d, want %d", i, assign[i], k)
		}
	}
}

func TestLoadBalanceBalances(t *testing.T) {
	// One layer: WCETs 40, 30, 20, 10 on 2 cores → LPT gives {40,10} and
	// {30,20}: perfectly balanced at 50/50.
	p := &Problem{
		Cores: 2, Banks: 2,
		Specs: []Spec{{WCET: 40}, {WCET: 30}, {WCET: 20}, {WCET: 10}},
	}
	assign, err := LoadBalance{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	load := map[model.CoreID]model.Cycles{}
	for i, k := range assign {
		load[k] += p.Specs[i].WCET
	}
	if load[0] != 50 || load[1] != 50 {
		t.Errorf("loads = %v, want 50/50", load)
	}
}

func TestListSchedulingPrefersCriticalPath(t *testing.T) {
	// Chain s→m→t plus independent task x. The chain dominates the rank,
	// and x must land on the other core (earliest availability), giving a
	// makespan equal to the chain length under no interference.
	p := &Problem{
		Cores: 2, Banks: 2,
		Specs: []Spec{
			{Name: "s", WCET: 10},
			{Name: "m", WCET: 10},
			{Name: "t", WCET: 10},
			{Name: "x", WCET: 5},
		},
		Edges: []Edge{{From: 0, To: 1}, {From: 1, To: 2}},
	}
	g, err := Map(p, ListScheduling{})
	if err != nil {
		t.Fatal(err)
	}
	chainCore := g.Core[0]
	if g.Core[3] == chainCore {
		t.Errorf("independent task mapped onto the critical-path core")
	}
	res, err := schedule(g, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 30 {
		t.Errorf("makespan = %d, want 30 (chain length)", res.Makespan)
	}
}

func TestMapErrors(t *testing.T) {
	p := diamondProblem()
	p.Cores = 0
	if _, err := Map(p, RoundRobinLayers{}); err == nil {
		t.Error("zero cores accepted")
	}
	// Cyclic problem.
	cyc := &Problem{
		Cores: 1, Banks: 1,
		Specs: []Spec{{WCET: 1}, {WCET: 1}},
		Edges: []Edge{{From: 0, To: 1}, {From: 1, To: 0}},
	}
	for _, s := range allStrategies() {
		if _, err := Map(cyc, s); err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Errorf("%s: cycle not rejected: %v", s.Name(), err)
		}
	}
	// Out-of-range edge.
	bad := &Problem{Cores: 1, Banks: 1, Specs: []Spec{{WCET: 1}}, Edges: []Edge{{From: 0, To: 5}}}
	if _, err := Map(bad, RoundRobinLayers{}); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestStrategyNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range allStrategies() {
		if s.Name() == "" || seen[s.Name()] {
			t.Errorf("bad or duplicate name %q", s.Name())
		}
		seen[s.Name()] = true
	}
}

func TestListSchedulingBeatsNaiveOnImbalance(t *testing.T) {
	// A wide layer of mixed WCETs behind a source: list scheduling should
	// never produce a worse interference-free makespan than the cyclic
	// rule on this shape.
	p := &Problem{
		Cores: 4, Banks: 4,
		Specs: []Spec{{Name: "src", WCET: 5}},
	}
	for i := 0; i < 12; i++ {
		p.Specs = append(p.Specs, Spec{WCET: model.Cycles(10 + 90*(i%3))})
		p.Edges = append(p.Edges, Edge{From: 0, To: i + 1})
	}
	gCyclic, err := Map(p, RoundRobinLayers{})
	if err != nil {
		t.Fatal(err)
	}
	gList, err := Map(p, ListScheduling{})
	if err != nil {
		t.Fatal(err)
	}
	cpCyclic, _ := scheduleMakespan(t, gCyclic)
	cpList, _ := scheduleMakespan(t, gList)
	if cpList > cpCyclic {
		t.Errorf("list scheduling makespan %d > cyclic %d", cpList, cpCyclic)
	}
}

func scheduleMakespan(t *testing.T, g *model.Graph) (model.Cycles, *sched.Result) {
	t.Helper()
	res, err := schedule(g, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Makespan, res
}
