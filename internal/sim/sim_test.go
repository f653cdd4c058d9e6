package sim

import (
	"context"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/fixpoint"    // registers the "fixpoint" engine backend
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

// schedule compiles g under opts and runs one cold analysis with the named
// engine backend.
func schedule(backend string, g *model.Graph, opts sched.Options) (*sched.Result, error) {
	img, err := engine.Compile(g, opts)
	if err != nil {
		return nil, err
	}
	return engine.MustNew(backend).Analyze(context.Background(), img)
}

func allPatterns() []Pattern { return []Pattern{Front, Back, Spread, Shuffled} }

func TestIsolatedTaskMatchesWCET(t *testing.T) {
	// A single task with no contention must take exactly its WCET,
	// whatever the access pattern.
	b := model.NewBuilder(1, 1)
	b.AddTask(model.TaskSpec{WCET: 100, Local: 30})
	g := b.MustBuild()
	for _, p := range allPatterns() {
		out, err := Run(g, []model.Cycles{0}, Config{Pattern: p, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if out.Finish[0] != 100 || out.Stall[0] != 0 {
			t.Errorf("%v: finish %d stall %d, want 100/0", p, out.Finish[0], out.Stall[0])
		}
	}
}

func TestPaperRoundRobinExample(t *testing.T) {
	// Section II.A: three cores each writing 8 words through a 1-word
	// round-robin bus. Simulated stalls must not exceed the analytic 16,
	// and with back-to-back accesses contention must actually appear.
	b := model.NewBuilder(3, 1)
	for i := 0; i < 3; i++ {
		b.AddTask(model.TaskSpec{WCET: 24, Core: model.CoreID(i), Local: 8})
	}
	g := b.MustBuild()
	out, err := Run(g, []model.Cycles{0, 0, 0}, Config{Pattern: Front})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	totalStall := model.Cycles(0)
	for i := 0; i < 3; i++ {
		if out.Stall[i] > 16 {
			t.Errorf("core %d stalled %d > analytic bound 16", i, out.Stall[i])
		}
		totalStall += out.Stall[i]
	}
	if totalStall == 0 {
		t.Error("no contention simulated for three cores hammering one bank")
	}
}

func TestTimeTriggeredStarts(t *testing.T) {
	// Tasks must start exactly at their release dates even when inputs
	// are ready earlier.
	b := model.NewBuilder(2, 2)
	p := b.AddTask(model.TaskSpec{WCET: 5, Core: 0})
	c := b.AddTask(model.TaskSpec{WCET: 5, Core: 1})
	b.AddEdge(p, c, 0)
	g := b.MustBuild()
	out, err := Run(g, []model.Cycles{0, 50}, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Start[c] != 50 {
		t.Errorf("consumer started at %d, want exactly 50", out.Start[c])
	}
}

func TestTimeTriggeredViolationDetected(t *testing.T) {
	// Two tasks on one core with overlapping declared windows: invalid
	// schedule, must be reported.
	b := model.NewBuilder(1, 1)
	b.AddTask(model.TaskSpec{WCET: 10})
	b.AddTask(model.TaskSpec{WCET: 10})
	g := b.MustBuild()
	_, err := Run(g, []model.Cycles{0, 5}, Config{})
	if err == nil || !strings.Contains(err.Error(), "time-triggered violation") {
		t.Fatalf("err = %v, want time-triggered violation", err)
	}
}

func TestReleaseLengthMismatch(t *testing.T) {
	g := gen.Figure1()
	if _, err := Run(g, []model.Cycles{0}, Config{}); err == nil {
		t.Fatal("mismatched release slice accepted")
	}
}

func TestHorizonAbort(t *testing.T) {
	b := model.NewBuilder(1, 1)
	b.AddTask(model.TaskSpec{WCET: 1000})
	g := b.MustBuild()
	_, err := Run(g, []model.Cycles{0}, Config{Horizon: 10})
	if err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("err = %v, want horizon abort", err)
	}
}

func TestDemandBeyondWCETClamped(t *testing.T) {
	// Declared demand larger than the WCET can physically issue: the task
	// must still take exactly its WCET in isolation.
	b := model.NewBuilder(1, 1)
	b.AddTask(model.TaskSpec{WCET: 10, Local: 500})
	g := b.MustBuild()
	out, err := Run(g, []model.Cycles{0}, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Finish[0] != 10 {
		t.Errorf("finish = %d, want 10", out.Finish[0])
	}
}

func TestScaledExecution(t *testing.T) {
	b := model.NewBuilder(1, 1)
	b.AddTask(model.TaskSpec{WCET: 100, Local: 10})
	g := b.MustBuild()
	out, err := Run(g, []model.Cycles{0}, Config{ExecNumerator: 1, ExecDenominator: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Finish[0] != 50 {
		t.Errorf("finish = %d, want 50 (half WCET)", out.Finish[0])
	}
}

// TestSoundnessAgainstIncremental is experiment E9: on random paper-style
// workloads, for every access pattern and for executions at and below the
// WCET, every simulated task must finish within its analyzed window.
func TestSoundnessAgainstIncremental(t *testing.T) {
	soundnessAgainst(t, engine.Incremental)
}

// TestSoundnessAgainstFixpoint repeats E9 for the baseline analysis.
func TestSoundnessAgainstFixpoint(t *testing.T) {
	soundnessAgainst(t, engine.Fixpoint)
}

func soundnessAgainst(t *testing.T, name string) {
	t.Helper()
	configs := []struct {
		layers, size, cores, banks int
		shared                     bool
	}{
		{4, 4, 4, 4, false},
		{4, 4, 4, 1, true},
		{3, 8, 8, 8, false},
		{6, 2, 2, 1, true},
	}
	execs := []struct{ num, den int64 }{{0, 0}, {3, 4}, {1, 3}}
	for _, cfg := range configs {
		for seed := int64(1); seed <= 4; seed++ {
			p := gen.NewParams(cfg.layers, cfg.size)
			p.Seed, p.Cores, p.Banks, p.SharedBank = seed, cfg.cores, cfg.banks, cfg.shared
			g := gen.MustLayered(p)
			opts := sched.Options{Arbiter: arbiter.NewRoundRobin(1)}
			res, err := schedule(name, g, opts)
			if err != nil {
				t.Fatalf("%s cfg %+v seed %d: %v", name, cfg, seed, err)
			}
			for _, pat := range allPatterns() {
				for _, ex := range execs {
					out, err := Run(g, res.Release, Config{
						Pattern: pat, Seed: seed,
						ExecNumerator: ex.num, ExecDenominator: ex.den,
					})
					if err != nil {
						t.Fatalf("%s cfg %+v seed %d %v: %v", name, cfg, seed, pat, err)
					}
					for i := range out.Finish {
						id := model.TaskID(i)
						if out.Finish[i] > res.Finish(id) {
							t.Fatalf("%s cfg %+v seed %d %v exec %d/%d: %s finished at %d, analysis bound %d — UNSOUND",
								name, cfg, seed, pat, ex.num, ex.den, id, out.Finish[i], res.Finish(id))
						}
						if out.Start[i] != res.Release[i] {
							t.Fatalf("%s: %s started at %d, release %d", name, id, out.Start[i], res.Release[i])
						}
					}
					if out.Makespan > res.Makespan {
						t.Fatalf("%s: simulated makespan %d > analyzed %d", name, out.Makespan, res.Makespan)
					}
				}
			}
		}
	}
}

// TestInterferenceIsReal shows the converse of soundness: scheduling with
// interference ignored (the None arbiter, Figure 1 top) yields windows that
// the simulated contention actually violates — the motivation for the whole
// analysis.
func TestInterferenceIsReal(t *testing.T) {
	b := model.NewBuilder(2, 1)
	b.AddTask(model.TaskSpec{WCET: 20, Core: 0, Local: 15})
	b.AddTask(model.TaskSpec{WCET: 20, Core: 1, Local: 15})
	g := b.MustBuild()
	naive, err := schedule(engine.Incremental, g, sched.Options{Arbiter: arbiter.NewNone()})
	if err != nil {
		t.Fatalf("naive schedule: %v", err)
	}
	out, err := Run(g, naive.Release, Config{Pattern: Front})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	violated := false
	for i := range out.Finish {
		if out.Finish[i] > naive.Finish(model.TaskID(i)) {
			violated = true
		}
	}
	if !violated {
		t.Fatal("contention did not break the interference-blind schedule; the example is too weak")
	}
}

func TestPatternStrings(t *testing.T) {
	for _, p := range allPatterns() {
		if p.String() == "" || strings.HasPrefix(p.String(), "Pattern(") {
			t.Errorf("pattern %d has no name", int(p))
		}
	}
	if !strings.HasPrefix(Pattern(99).String(), "Pattern(") {
		t.Error("unknown pattern String wrong")
	}
}

func TestStallAccounting(t *testing.T) {
	// Finish - Start must equal scaled WCET + stalls for every task.
	p := gen.NewParams(3, 4)
	p.Cores, p.Banks, p.SharedBank = 4, 1, true
	g := gen.MustLayered(p)
	res, err := schedule(engine.Incremental, g, sched.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	out, err := Run(g, res.Release, Config{Pattern: Front})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, wcet := range g.WCET {
		got := out.Finish[i] - out.Start[i]
		if want := wcet + out.Stall[i]; got != want {
			t.Errorf("%s: duration %d ≠ WCET %d + stall %d", model.TaskID(i), got, wcet, out.Stall[i])
		}
	}
}

// TestRoundRobinFairness verifies the arbiter hardware model itself:
// while cores are continuously requesting, between two consecutive grants
// to the same core on a bank every other core is granted at most once —
// the invariant that makes the analytic min(w, d) bound per competitor
// sound. The scenario saturates the bank (pure-access tasks, no compute
// gaps) so every unfinished core is pending at all times; round-robin may
// legitimately serve idle-period cores unboundedly, which this setup
// excludes by construction.
func TestRoundRobinFairness(t *testing.T) {
	b := model.NewBuilder(4, 1)
	for i := 0; i < 4; i++ {
		b.AddTask(model.TaskSpec{WCET: 25, Core: model.CoreID(i), Local: 25})
	}
	g := b.MustBuild()
	type grant struct {
		t    model.Cycles
		core model.CoreID
	}
	var grants []grant
	_, err := Run(g, []model.Cycles{0, 0, 0, 0}, Config{Pattern: Front, TraceGrant: func(tm model.Cycles, b model.BankID, c model.CoreID) {
		grants = append(grants, grant{tm, c})
	}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(grants) == 0 {
		t.Fatal("no grants recorded")
	}
	// For every pair of consecutive grants to the same core, count grants
	// to each other core in between.
	lastIdx := map[model.CoreID]int{}
	for i, gr := range grants {
		if prev, ok := lastIdx[gr.core]; ok {
			between := map[model.CoreID]int{}
			for _, mid := range grants[prev+1 : i] {
				between[mid.core]++
				if between[mid.core] > 1 {
					t.Fatalf("core %d granted twice between consecutive grants of core %d (around cycle %d)",
						mid.core, gr.core, gr.t)
				}
			}
		}
		lastIdx[gr.core] = i
	}
}

// TestGrantsServiceOneWordPerCycle sanity-checks the grant trace: a
// single-bank simulation never grants twice in the same cycle with unit
// latency.
func TestGrantsServiceOneWordPerCycle(t *testing.T) {
	b := model.NewBuilder(3, 1)
	for i := 0; i < 3; i++ {
		b.AddTask(model.TaskSpec{WCET: 30, Core: model.CoreID(i), Local: 10})
	}
	g := b.MustBuild()
	seen := map[model.Cycles]int{}
	_, err := Run(g, []model.Cycles{0, 0, 0}, Config{TraceGrant: func(tm model.Cycles, _ model.BankID, _ model.CoreID) {
		seen[tm]++
	}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for tm, n := range seen {
		if n > 1 {
			t.Fatalf("%d grants at cycle %d on one bank", n, tm)
		}
	}
}
