package incremental

import (
	"context"
	"fmt"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// benchGraph builds an NL-shaped (few wide layers) benchmark instance of n
// tasks — the shape where per-core orders are long and warm-start replays
// skip the most work.
func benchGraph(b *testing.B, layers, layerSize int) *model.Graph {
	b.Helper()
	p := gen.NewParams(layers, layerSize)
	p.Seed = 1
	p.Cores, p.Banks = 8, 4
	return gen.MustLayered(p)
}

// BenchmarkScheduleIncremental measures one full cold analysis through the
// reusable Scheduler (checkpoint recording on, steady-state buffers warm).
// The b.ReportMetric of allocs/op is the number the CI smoke job tracks: the
// event loop must stay at zero.
func BenchmarkScheduleIncremental(b *testing.B) {
	for _, size := range []struct{ layers, layerSize int }{
		{4, 16},  // n=64
		{4, 64},  // n=256
		{4, 128}, // n=512
	} {
		n := size.layers * size.layerSize
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sc := compiledScheduler(b, benchGraph(b, size.layers, size.layerSize), sched.Options{})
			ctx := context.Background()
			if _, err := sc.Analyze(ctx); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sc.Analyze(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRescheduleWarm measures the warm-start path against the cold
// baseline on the same adjacent-swap neighbor: swap, re-analyze, swap back,
// re-analyze — the exact cycle of neighborhood search. The warm/cold ratio
// is the tentpole's headline number.
func BenchmarkRescheduleWarm(b *testing.B) {
	for _, size := range []struct{ layers, layerSize int }{
		{4, 64},  // n=256
		{4, 128}, // n=512
	} {
		n := size.layers * size.layerSize
		g := benchGraph(b, size.layers, size.layerSize)
		// Swap deep in core 0's order: a realistic late-neighborhood move.
		order := g.Order(0)
		pos := len(order) * 3 / 4
		dep := false
		for _, e := range g.Edges() {
			if e.From == order[pos] && e.To == order[pos+1] {
				dep = true
			}
		}
		if dep {
			pos--
		}
		edits := []engine.Edit{{Core: 0, From: pos}}

		b.Run(fmt.Sprintf("n=%d/warm", n), func(b *testing.B) {
			sc := compiledScheduler(b, g, sched.Options{})
			ord := sc.Orders()
			ctx := context.Background()
			if _, err := sc.Analyze(ctx); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ord.Swap(0, pos)
				if _, err := sc.Reschedule(ctx, edits...); err != nil {
					b.Fatal(err)
				}
				ord.Swap(0, pos)
				if _, err := sc.Reschedule(ctx, edits...); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/cold", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.SwapOrder(0, pos)
				if _, err := schedule(g, sched.Options{}); err != nil {
					b.Fatal(err)
				}
				g.SwapOrder(0, pos)
				if _, err := schedule(g, sched.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
