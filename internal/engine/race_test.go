package engine_test

import (
	"context"
	"sync"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/sched"
)

// TestSharedImageConcurrentAnalyzers is the immutability contract's teeth:
// one compiled image, eight concurrent warm analyzers hammering it with
// cold runs, warm replays, and swap-edit/undo cycles. Under -race this
// proves the image is never written after Compile; the result comparisons
// prove the analyzers do not leak state into each other through the shared
// arrays.
func TestSharedImageConcurrentAnalyzers(t *testing.T) {
	p := gen.NewParams(8, 8)
	p.Seed = 5
	p.Cores, p.Banks = 4, 4
	g := gen.MustLayered(p)
	opts := sched.Options{}

	img, err := engine.Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	inc := engine.MustNew(engine.Incremental)
	ctx := context.Background()

	base, err := coldRun(engine.Incremental, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	core, pos, ok := legalSwap(g)
	if !ok {
		t.Fatal("no legal swap site")
	}
	edited := g.Clone()
	edited.SwapOrder(core, pos)
	want, err := coldRun(engine.Incremental, edited, opts)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const rounds = 20
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			w := inc.NewWarm(img)
			res, err := w.Analyze(ctx)
			if err != nil {
				t.Errorf("g%d: analyze: %v", gi, err)
				return
			}
			if d := res.Diff(base); d != "" {
				t.Errorf("g%d: baseline diverges: %s", gi, d)
				return
			}
			ord := w.Orders()
			edit := engine.Edit{Core: core, From: pos}
			for r := 0; r < rounds; r++ {
				ord.Swap(core, pos)
				res, err := w.Reschedule(ctx, edit)
				if err != nil {
					t.Errorf("g%d round %d: edited reschedule: %v", gi, r, err)
					return
				}
				if d := res.Diff(want); d != "" {
					t.Errorf("g%d round %d: edited result diverges: %s", gi, r, d)
					return
				}
				ord.Swap(core, pos)
				res, err = w.Reschedule(ctx, edit)
				if err != nil {
					t.Errorf("g%d round %d: undo reschedule: %v", gi, r, err)
					return
				}
				if d := res.Diff(base); d != "" {
					t.Errorf("g%d round %d: undo result diverges: %s", gi, r, d)
					return
				}
			}
			// Interleave a cold run over the shared image for good measure.
			res, err = w.AnalyzeCold(ctx)
			if err != nil {
				t.Errorf("g%d: cold run: %v", gi, err)
				return
			}
			if d := res.Diff(base); d != "" {
				t.Errorf("g%d: cold result diverges: %s", gi, d)
			}
		}(gi)
	}
	wg.Wait()
}
