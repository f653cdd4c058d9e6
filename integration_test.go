// Integration tests exercising the whole pipeline across package
// boundaries: JSON I/O → scheduling → independent checking → cycle-level
// simulation, plus determinism and randomized cross-package properties.
package mia_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/fixpoint"    // registers the "fixpoint" engine backend
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
	"github.com/mia-rt/mia/internal/sim"
)

// analyze compiles g under opts and runs one cold analysis with the named
// engine backend.
func analyze(backend string, g *model.Graph, opts sched.Options) (*sched.Result, error) {
	img, err := engine.Compile(g, opts)
	if err != nil {
		return nil, err
	}
	return engine.MustNew(backend).Analyze(context.Background(), img)
}

// TestPipelineJSONRoundTrip: generate → serialize → parse → schedule must
// give the same schedule as the original graph.
func TestPipelineJSONRoundTrip(t *testing.T) {
	p := gen.NewParams(5, 8)
	p.Cores, p.Banks = 8, 8
	g := gen.MustLayered(p)

	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	g2, err := model.ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}

	opts := sched.Options{Arbiter: arbiter.NewRoundRobin(1)}
	r1, err := analyze(engine.Incremental, g, opts)
	if err != nil {
		t.Fatalf("Schedule original: %v", err)
	}
	r2, err := analyze(engine.Incremental, g2, opts)
	if err != nil {
		t.Fatalf("Schedule round-tripped: %v", err)
	}
	if !r1.Equal(r2) {
		t.Fatalf("round trip changed the schedule: %s", r1.Diff(r2))
	}
}

// TestDeterminism: scheduling is a pure function of its inputs.
func TestDeterminism(t *testing.T) {
	p := gen.NewParams(6, 6)
	g := gen.MustLayered(p)
	opts := sched.Options{Arbiter: arbiter.NewRoundRobin(1)}
	r1, err := analyze(engine.Incremental, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r2, err := analyze(engine.Incremental, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !r1.Equal(r2) {
			t.Fatalf("run %d differs: %s", i, r1.Diff(r2))
		}
	}
}

// randomGraph builds an arbitrary (non-layered) DAG: random forward edges,
// random mapping, random minimal releases — shapes the layered generator
// never produces.
func randomGraph(seed int64) (*model.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	cores := 1 + rng.Intn(6)
	banks := 1 + rng.Intn(4)
	n := 2 + rng.Intn(30)
	b := model.NewBuilder(cores, banks)
	for i := 0; i < n; i++ {
		b.AddTask(model.TaskSpec{
			WCET:       model.Cycles(rng.Intn(200)),
			Core:       model.CoreID(rng.Intn(cores)),
			MinRelease: model.Cycles(rng.Intn(500)),
			Local:      model.Accesses(rng.Intn(100)),
		})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(5) == 0 {
				b.AddEdge(model.TaskID(i), model.TaskID(j), model.Accesses(rng.Intn(40)))
			}
		}
	}
	return b.Build()
}

// TestRandomGraphsInvariants: on arbitrary DAGs, the incremental scheduler
// must produce schedules satisfying every invariant of the independent
// checker, for several arbiters and both competitor treatments.
func TestRandomGraphsInvariants(t *testing.T) {
	arbs := []arbiter.Arbiter{
		arbiter.NewRoundRobin(1),
		arbiter.NewTreeRR(1, 2, 3),
		arbiter.NewTDM(4, 2),
		arbiter.NewFixedPriority(2),
	}
	check := func(seed int64, separate bool, arbIdx uint8) bool {
		g, err := randomGraph(seed)
		if err != nil {
			return false
		}
		opts := sched.Options{
			Arbiter:             arbs[int(arbIdx)%len(arbs)],
			SeparateCompetitors: separate,
		}
		res, err := analyze(engine.Incremental, g, opts)
		if err != nil {
			return false
		}
		return sched.Check(g, opts, res) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomGraphsSimulationSoundness: on arbitrary DAGs, simulated
// executions must respect the analysis windows.
func TestRandomGraphsSimulationSoundness(t *testing.T) {
	check := func(seed int64, patIdx uint8) bool {
		g, err := randomGraph(seed)
		if err != nil {
			return false
		}
		res, err := analyze(engine.Incremental, g, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
		if err != nil {
			return false
		}
		out, err := sim.Run(g, res.Release, sim.Config{
			Pattern: sim.Pattern(int(patIdx) % 4),
			Seed:    seed,
		})
		if err != nil {
			return false
		}
		for i := range out.Finish {
			if out.Finish[i] > res.Finish(model.TaskID(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHierarchicalNeverWorseThanFlat: grouping competitors behind a
// two-level arbitration tree can only reduce the analyzed interference
// (min(Σw, d) ≤ Σ min(w, d) at the root), end-to-end through the scheduler.
func TestHierarchicalNeverWorseThanFlat(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := gen.NewParams(4, 8)
		p.Seed = seed
		p.Cores, p.Banks, p.SharedBank = 8, 1, true
		g := gen.MustLayered(p)
		flat, err := analyze(engine.Incremental, g, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
		if err != nil {
			t.Fatal(err)
		}
		hier, err := analyze(engine.Incremental, g, sched.Options{Arbiter: arbiter.NewTreeRR(1, 4, 2)})
		if err != nil {
			t.Fatal(err)
		}
		if hier.TotalInterference() > flat.TotalInterference() {
			t.Errorf("seed %d: hierarchical interference %d > flat %d",
				seed, hier.TotalInterference(), flat.TotalInterference())
		}
	}
}

// TestNonAdditiveWrapperEquivalence: hiding additivity must change the
// execution path, never the result.
func TestNonAdditiveWrapperEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := gen.NewParams(5, 6)
		p.Seed = seed
		g := gen.MustLayered(p)
		fast, err := analyze(engine.Incremental, g, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := analyze(engine.Incremental, g, sched.Options{
			Arbiter: arbiter.NonAdditive{Inner: arbiter.NewRoundRobin(1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !fast.Equal(slow) {
			t.Fatalf("seed %d: additive fast path changed the schedule: %s", seed, fast.Diff(slow))
		}
	}
}

// TestFigure1BothAlgorithms: the two analyses coincide exactly on the
// paper's worked example.
func TestFigure1BothAlgorithms(t *testing.T) {
	g := gen.Figure1()
	opts := sched.Options{Arbiter: arbiter.NewRoundRobin(1)}
	a, err := analyze(engine.Incremental, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := analyze(engine.Fixpoint, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("algorithms differ on Figure 1: %s", a.Diff(b))
	}
	if a.Makespan != 7 {
		t.Fatalf("makespan = %d", a.Makespan)
	}
}

// TestMergingEmpiricallyLessPessimistic is the paper's §II.C claim, stated
// the way the paper states it: merging same-core interferers into one big
// task "empirically outputs less pessimistic release times". The *local*
// bound is provably never worse (min(Σw, d) ≤ Σ min(w, d); asserted in the
// arbiter and interference tests) — but through schedule feedback a locally
// smaller interference can shift windows and create new overlaps, so the
// *global* total occasionally comes out larger. Measured over 2000
// arbitrary random DAGs: merged ≤ separate on 97.5% of instances. This test
// pins the empirical claim at ≥ 90% on a fixed, deterministic seed range.
func TestMergingEmpiricallyLessPessimistic(t *testing.T) {
	better, worse := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		g, err := randomGraph(seed)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := analyze(engine.Incremental, g, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		separate, err := analyze(engine.Incremental, g, sched.Options{SeparateCompetitors: true})
		if err != nil {
			t.Fatal(err)
		}
		if merged.TotalInterference() <= separate.TotalInterference() {
			better++
		} else {
			worse++
		}
	}
	if better*100 < (better+worse)*90 {
		t.Fatalf("merging less pessimistic on only %d/%d instances, want ≥ 90%%", better, better+worse)
	}
	t.Logf("merging ≤ separate on %d/%d instances", better, better+worse)
}
