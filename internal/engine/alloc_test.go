package engine_test

import (
	"context"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// allocImage compiles the steady-state workload for the engine-level
// allocation guards: big enough that the event loop dominates, small enough
// to keep the guard fast.
func allocImage(t testing.TB) *engine.Image {
	t.Helper()
	p := gen.NewParams(8, 16)
	p.Seed = 3
	p.Cores, p.Banks = 8, 4
	img, err := engine.Compile(gen.MustLayered(p), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestWarmAnalyzeSteadyStateAllocationFree pins the warm analyzer's allocation
// contract: once a warm analyzer's pooled buffers have grown to their
// high-water mark, repeated Analyze calls through the engine interface —
// adapter, context plumbing and all — perform zero heap allocations.
func TestWarmAnalyzeSteadyStateAllocationFree(t *testing.T) {
	img := allocImage(t)
	w := engine.MustNew(engine.Incremental).NewWarm(img)
	ctx := context.Background()
	// Two warm-ups: the first grows the buffers, the second runs with the
	// steady-state checkpoint stride derived from the first run.
	for i := 0; i < 2; i++ {
		if _, err := w.Analyze(ctx); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := w.Analyze(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state engine Analyze allocates %.1f objects per run, want 0", avg)
	}
}

// TestWarmRescheduleSteadyStateAllocationFree pins the same contract for
// the neighborhood-evaluation cycle through the engine interface: overlay swap, warm
// Reschedule, swap back — exactly how the serving layer drives it.
func TestWarmRescheduleSteadyStateAllocationFree(t *testing.T) {
	img := allocImage(t)
	w := engine.MustNew(engine.Incremental).NewWarm(img)
	ctx := context.Background()
	if _, err := w.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	core, pos, ok := legalSwap(img.NewGraph())
	if !ok {
		t.Fatal("no legal swap site")
	}
	ord := w.Orders()
	edits := []engine.Edit{{Core: model.CoreID(core), From: pos}}
	cycle := func() {
		ord.Swap(core, pos)
		if _, err := w.Reschedule(ctx, edits...); err != nil {
			t.Fatal(err)
		}
		ord.Swap(core, pos)
		if _, err := w.Reschedule(ctx, edits...); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm-up: replay suffix may grow buffer high-water marks
	avg := testing.AllocsPerRun(10, cycle)
	if avg != 0 {
		t.Fatalf("steady-state swap/Reschedule cycle allocates %.1f objects per run, want 0", avg)
	}
}

// TestFingerprintOrdersAllocsConstant pins the per-scenario fingerprint to
// a fixed number of allocations (digest state, buffered serializer, sum
// and hex encoding) that does not grow with the task count. The
// hotpathalloc analyzer cannot see an escape through an interface
// argument such as hash.Hash.Write, so this guard observes it instead: an
// integer serialized through a stack array that escapes would add one
// allocation per task.
func TestFingerprintOrdersAllocsConstant(t *testing.T) {
	const maxAllocs = 5
	for _, layers := range []int{6, 60} { // 384 and 3,840 tasks
		p := gen.NewParams(layers, 64)
		p.Seed = 5
		img, err := engine.Compile(gen.MustLayered(p), sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		o := img.NewOrders()
		img.FingerprintOrders(o) // build the frozen midstate once
		avg := testing.AllocsPerRun(20, func() { img.FingerprintOrders(o) })
		if avg > maxAllocs {
			t.Errorf("FingerprintOrders at %d tasks allocates %.0f objects per call, want ≤ %d", img.NumTasks, avg, maxAllocs)
		}
	}
}
