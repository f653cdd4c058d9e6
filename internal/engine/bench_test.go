package engine_test

import (
	"context"
	"fmt"
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
// runs in: a pre-compiled image plus checkpointed warm-start replay of a
// single-swap edit.
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
}

// BenchmarkParallelKernel measures the intra-analysis parallel speedup on
// single-instance latency: one cold incremental analysis over a precompiled
// 64-core/64-bank image, sequential (P=1) versus the four-way blocked kernel
// (P=4). The wide platform gives each event enough pairwise exchange work to
// amortize the fork/join signaling; results are bit-identical at both
// levels (pinned by the differential suite), so the seconds are the only
// thing this knob changes.
func BenchmarkParallelKernel(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		p := gen.NewParams(n/64, 64)
		p.Seed = 7
		p.Cores, p.Banks = 64, 64
		g := gen.MustLayered(p)
		for _, par := range []int{1, 4} {
			b.Run(fmt.Sprintf("n=%d/P=%d", n, par), func(b *testing.B) {
				img, err := engine.Compile(g, sched.Options{Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
				w := engine.MustNew(engine.Incremental).NewWarm(img)
				defer engine.CloseWarm(w)
				ctx := context.Background()
				// Two warm-ups: the first spawns the kernel workers, the
				// second flushes one-time runtime bookkeeping (sudog pools)
				// so short -benchtime runs don't report phantom allocs.
				for i := 0; i < 2; i++ {
					if _, err := w.AnalyzeCold(ctx); err != nil {
						b.Fatal(err)
					}
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
