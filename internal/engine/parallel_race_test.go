package engine_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/sched"
)

// TestSharedImageConcurrentParallelAnalyzers extends the immutability race
// test to the parallel kernel: one compiled image (Parallelism = 4), eight
// concurrent *parallel* analyzers, each running its own four-worker kernel
// over the shared demand matrix and bitset masks. Under -race this proves
// the kernels touch only analyzer-private state; the result comparisons
// prove the partitioned reduction stays bit-identical to the sequential
// baseline while 32 workers hammer the same image.
func TestSharedImageConcurrentParallelAnalyzers(t *testing.T) {
	p := gen.NewParams(8, 8)
	p.Seed = 5
	p.Cores, p.Banks = 4, 4
	g := gen.MustLayered(p)

	base, err := coldRun(engine.Incremental, g, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := engine.Compile(g, sched.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	inc := engine.MustNew(engine.Incremental)
	ctx := context.Background()

	const goroutines = 8
	const rounds = 20
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			w := inc.NewWarm(img)
			defer engine.CloseWarm(w)
			for r := 0; r < rounds; r++ {
				res, err := w.Analyze(ctx)
				if err != nil {
					t.Errorf("g%d round %d: analyze: %v", gi, r, err)
					return
				}
				if d := res.Diff(base); d != "" {
					t.Errorf("g%d round %d: warm result diverges: %s", gi, r, d)
					return
				}
				res, err = w.AnalyzeCold(ctx)
				if err != nil {
					t.Errorf("g%d round %d: cold run: %v", gi, r, err)
					return
				}
				if d := res.Diff(base); d != "" {
					t.Errorf("g%d round %d: cold result diverges: %s", gi, r, d)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
}

// waitForGoroutines polls until the live goroutine count drops back to at
// most want, tolerating the runtime's asynchronous bookkeeping, and fails
// the test if it never does.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d live, want ≤ %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelKernelShutdownNoLeak pins the kernel worker lifecycle: cold
// parallel analyses join their workers before returning, and closing a warm
// analyzer releases its parked workers — the goroutine count returns to the
// pre-test baseline in both cases. It also proves a closed analyzer is
// restartable: the next parallel run respawns workers and stays correct.
func TestParallelKernelShutdownNoLeak(t *testing.T) {
	p := gen.NewParams(8, 8)
	p.Seed = 7
	p.Cores, p.Banks = 8, 8
	g := gen.MustLayered(p)
	base, err := coldRun(engine.Incremental, g, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := engine.Compile(g, sched.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	inc := engine.MustNew(engine.Incremental)
	ctx := context.Background()
	before := runtime.NumGoroutine()

	// Cold runs are self-contained: workers never outlive Analyze.
	for r := 0; r < 5; r++ {
		if _, err := inc.Analyze(ctx, img); err != nil {
			t.Fatalf("cold run %d: %v", r, err)
		}
	}
	waitForGoroutines(t, before)

	// A warm analyzer parks its workers between runs; CloseWarm releases
	// them, and the analyzer keeps working (respawning on demand).
	w := inc.NewWarm(img)
	for cycle := 0; cycle < 3; cycle++ {
		res, err := w.Analyze(ctx)
		if err != nil {
			t.Fatalf("cycle %d: analyze: %v", cycle, err)
		}
		if d := res.Diff(base); d != "" {
			t.Fatalf("cycle %d: result diverges after close/respawn: %s", cycle, d)
		}
		engine.CloseWarm(w)
		waitForGoroutines(t, before)
	}
}

// TestParallelCancellationMidAnalysis drives ctx cancellation into the
// parallel path: an expired context aborts the analysis with ErrCanceled
// without stranding kernel workers, and the same analyzer completes the
// next, uncancelled run bit-identically.
func TestParallelCancellationMidAnalysis(t *testing.T) {
	p := gen.NewParams(64, 16) // n = 1024: long enough to guarantee poll points
	p.Seed = 3
	p.Cores, p.Banks = 16, 16
	g := gen.MustLayered(p)
	img, err := engine.Compile(g, sched.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	inc := engine.MustNew(engine.Incremental)
	before := runtime.NumGoroutine()

	w := inc.NewWarm(img)
	defer engine.CloseWarm(w)

	// Already-expired deadline: the run must abort, not complete.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.AnalyzeCold(expired); err != sched.ErrCanceled {
		t.Fatalf("expired ctx: got error %v, want ErrCanceled", err)
	}

	// Deadline landing mid-run: either outcome is legal (completion when
	// the run wins the race), but an abort must report ErrCanceled.
	shortCtx, cancel2 := context.WithTimeout(context.Background(), 500*time.Microsecond)
	defer cancel2()
	if _, err := w.AnalyzeCold(shortCtx); err != nil && err != sched.ErrCanceled {
		t.Fatalf("mid-run cancel: got error %v, want nil or ErrCanceled", err)
	}

	// The analyzer recovers: a background-context run completes and matches
	// the sequential reference.
	want, err := coldRun(engine.Incremental, g, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Analyze(context.Background())
	if err != nil {
		t.Fatalf("post-cancel analyze: %v", err)
	}
	if d := res.Diff(want); d != "" {
		t.Fatalf("post-cancel result diverges: %s", d)
	}

	engine.CloseWarm(w)
	waitForGoroutines(t, before)
}
