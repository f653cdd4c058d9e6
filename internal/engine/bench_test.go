package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// benchSizes are the compile-amortization measurement points: the paper's
// LS64-style shape (64-task layers) at the sizes where compile-per-run
// overhead is visible and where it must still matter (n ≥ 1024).
var benchSizes = []int{256, 1024}

func benchGraph(b *testing.B, n int) *model.Graph {
	b.Helper()
	p := gen.NewParams(n/64, 64)
	p.Seed = 7
	p.Cores, p.Banks = 16, 16
	return gen.MustLayered(p)
}

// BenchmarkCompilePerRun measures the compile-per-evaluation consumer
// shape: every run pays validation, flattening and the adjacency build
// (engine.Compile) before a cold Analyze of the fresh image.
func BenchmarkCompilePerRun(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := benchGraph(b, n)
			eng := engine.MustNew(engine.Incremental)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				img, err := engine.Compile(g, sched.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Analyze(ctx, img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileOnce measures the engine consumer shape: one Compile
// amortized across runs, each run a cold analysis over the shared image
// through a long-lived analyzer (the AnalyzeCold oracle path — no
// checkpoint replay, so the comparison isolates compile amortization from
// warm-start reuse).
func BenchmarkCompileOnce(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			img, err := engine.Compile(benchGraph(b, n), sched.Options{})
			if err != nil {
				b.Fatal(err)
			}
			w := engine.MustNew(engine.Incremental).NewWarm(img)
			ctx := context.Background()
			if _, err := w.AnalyzeCold(ctx); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.AnalyzeCold(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarmReplay measures the steady state the serving layer actually
// runs in: a pre-compiled image plus checkpointed warm-start replay. The
// n=256 and n=1024 cases replay one single-swap edit and its undo. The
// mixed case is the what-if serving shape: 60×64 tasks on 16 cores × 16
// banks, cycling a fixed seeded set of independent swaps at positions
// spread over every order, each applied, replayed once and undone.
func BenchmarkWarmReplay(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := benchGraph(b, n)
			img, err := engine.Compile(g, sched.Options{})
			if err != nil {
				b.Fatal(err)
			}
			w := engine.MustNew(engine.Incremental).NewWarm(img)
			ctx := context.Background()
			if _, err := w.Analyze(ctx); err != nil {
				b.Fatal(err)
			}
			core, pos, ok := legalSwap(g)
			if !ok {
				b.Fatal("no legal swap site")
			}
			ord := w.Orders()
			edits := []engine.Edit{{Core: core, From: pos}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ord.Swap(core, pos)
				if _, err := w.Reschedule(ctx, edits...); err != nil {
					b.Fatal(err)
				}
				ord.Swap(core, pos)
				if _, err := w.Reschedule(ctx, edits...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	img, err := engine.Compile(benchGraph(b, 3840), sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	w := engine.MustNew(engine.Incremental).NewWarm(img)
	ctx := context.Background()
	if _, err := w.Analyze(ctx); err != nil {
		b.Fatal(err)
	}
	edits := mixedSwaps(b, img, w, 16)
	b.Run("n=3840/mixed", func(b *testing.B) {
		ord := w.Orders()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(edits)
			e := edits[j]
			ord.Swap(e.Core, e.From)
			if _, err := w.Reschedule(ctx, edits[j:j+1]...); err != nil {
				b.Fatal(err)
			}
			ord.Swap(e.Core, e.From)
		}
	})
}

// mixedSwaps draws n adjacent swaps of w's committed orders, each at a
// uniformly random core and position (seeded, so every run replays the same
// set), keeping only swaps whose orders still schedule: swapping two tasks
// with a precedence path between them deadlocks.
func mixedSwaps(b *testing.B, img *engine.Image, w engine.Warm, n int) []engine.Edit {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	ord := w.Orders()
	ctx := context.Background()
	var edits []engine.Edit
	for tries := 0; len(edits) < n; tries++ {
		if tries == 16*n {
			b.Fatalf("only %d of %d swaps schedule", len(edits), n)
		}
		k := model.CoreID(rng.Intn(img.Cores))
		if len(ord.Order(k)) < 2 {
			continue
		}
		pos := rng.Intn(len(ord.Order(k)) - 1)
		ord.Swap(k, pos)
		_, err := w.AnalyzeCold(ctx)
		ord.Swap(k, pos)
		if err == nil {
			edits = append(edits, engine.Edit{Core: k, From: pos})
		}
	}
	return edits
}

// BenchmarkCompile isolates what the other two differ by: validation,
// cloning, and SoA/CSR flattening for one graph.
func BenchmarkCompile(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := benchGraph(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Compile(g, sched.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
