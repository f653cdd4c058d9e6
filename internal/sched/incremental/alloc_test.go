package incremental

import (
	"context"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// allocGraph builds the steady-state workload for the allocation guards: big
// enough that the event loop dominates, small enough to keep the guard fast.
func allocGraph(t testing.TB) *model.Graph {
	t.Helper()
	p := gen.NewParams(8, 16)
	p.Seed = 3
	p.Cores, p.Banks = 8, 4
	return gen.MustLayered(p)
}

// TestScheduleSteadyStateAllocationFree pins the tentpole's allocation
// contract: after warm-up runs have grown every pooled buffer (state, result,
// checkpoint store) to its high-water mark, repeated cold Analyze calls on
// the same Scheduler perform zero heap allocations.
func TestScheduleSteadyStateAllocationFree(t *testing.T) {
	sc := compiledScheduler(t, allocGraph(t), sched.Options{})
	ctx := context.Background()
	// Two warm-ups: the first grows the buffers, the second runs with the
	// steady-state stride derived from the first run's event count (a stride
	// change reshapes which events land checkpoints, hence buffer sizes).
	for i := 0; i < 2; i++ {
		if _, err := sc.Analyze(ctx); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := sc.Analyze(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Analyze allocates %.1f objects per run, want 0", avg)
	}
}

// TestRescheduleSteadyStateAllocationFree pins the same contract for the
// neighborhood-evaluation cycle: swap, warm Reschedule, swap back. The edits
// slice is prebuilt and passed via ... so the call itself does not allocate —
// exactly how the serving layer drives it.
func TestRescheduleSteadyStateAllocationFree(t *testing.T) {
	g := allocGraph(t)
	sc := compiledScheduler(t, g, sched.Options{})
	ctx := context.Background()
	if _, err := sc.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	sites := legalSwapSites(g)
	if len(sites) == 0 {
		t.Fatal("no legal swap sites")
	}
	site := sites[len(sites)/2]
	core, pos := model.CoreID(site[0]), site[1]
	edits := []engine.Edit{{Core: core, From: pos}}
	ord := sc.Orders()
	cycle := func() {
		ord.Swap(core, pos)
		if _, err := sc.Reschedule(ctx, edits...); err != nil {
			t.Fatal(err)
		}
		ord.Swap(core, pos)
		if _, err := sc.Reschedule(ctx, edits...); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm-up: replay suffix may grow comp/terms high-water marks
	avg := testing.AllocsPerRun(10, cycle)
	if avg != 0 {
		t.Fatalf("steady-state swap/Reschedule cycle allocates %.1f objects per run, want 0", avg)
	}
}

// TestFreshAnalyzerAllocations bounds what a warm analyzer costs on top of
// a one-shot analysis: building a Scheduler and running its first,
// checkpoint-recording Analyze at the paper's scale (6×64 tasks, 16 cores ×
// 16 banks) must allocate fewer than twice the objects of Backend.Analyze
// on the same image. Checkpoints allocate one buffer each; the bound catches
// a checkpoint layout that allocates per slot and bank, which puts the
// ratio near 16.
func TestFreshAnalyzerAllocations(t *testing.T) {
	img, err := engine.Compile(gen.MustLayered(gen.NewParams(6, 64)), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := engine.MustNew(engine.Incremental)
	cold := testing.AllocsPerRun(3, func() {
		if _, err := eng.Analyze(ctx, img); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(3, func() {
		if _, err := newScheduler(img).Analyze(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("fresh analyzer %.0f allocations, Backend.Analyze %.0f", fresh, cold)
	if fresh >= 2*cold {
		t.Fatalf("fresh analyzer allocates %.0f objects, want fewer than 2 × %.0f (Backend.Analyze)", fresh, cold)
	}
}
