package engine_test

import (
	"context"
	"errors"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/sched"
)

// TestCancellationAcrossBackends pins the cancellation contract of every
// backend: an already-canceled ctx makes Backend.Analyze and each Warm
// method return sched.ErrCanceled, and the analyzer recovers. A canceled
// Analyze leaves no baseline; a canceled Reschedule leaves the committed
// one intact, so the next Reschedule of the edit and of its undo match cold
// analyses of the edited and the original orders.
func TestCancellationAcrossBackends(t *testing.T) {
	p := gen.NewParams(8, 8) // 64 tasks: fixpoint stays fast
	p.Seed = 5
	p.Cores, p.Banks = 4, 4
	g := gen.MustLayered(p)
	core, pos, ok := legalSwap(g)
	if !ok {
		t.Fatal("no legal swap site")
	}
	edited := g.Clone()
	edited.SwapOrder(core, pos)
	img, err := engine.Compile(g, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	editedImg, err := engine.Compile(edited, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := context.Background()
	edit := engine.Edit{Core: core, From: pos}

	for _, backend := range []string{engine.Incremental, engine.Fixpoint, engine.RTA} {
		t.Run(backend, func(t *testing.T) {
			eng := engine.MustNew(backend)
			want, err := eng.Analyze(ctx, img)
			if err != nil {
				t.Fatal(err)
			}
			wantEdited, err := eng.Analyze(ctx, editedImg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Analyze(canceled, img); !errors.Is(err, sched.ErrCanceled) {
				t.Fatalf("Backend.Analyze: got %v, want ErrCanceled", err)
			}

			w := eng.NewWarm(img)
			if _, err := w.Analyze(canceled); !errors.Is(err, sched.ErrCanceled) {
				t.Fatalf("Warm.Analyze: got %v, want ErrCanceled", err)
			}
			if w.Warm() {
				t.Fatal("a canceled Analyze left a warm baseline")
			}
			if _, err := w.AnalyzeCold(canceled); !errors.Is(err, sched.ErrCanceled) {
				t.Fatalf("AnalyzeCold: got %v, want ErrCanceled", err)
			}
			if _, err := w.Reschedule(canceled); !errors.Is(err, sched.ErrCanceled) {
				t.Fatalf("Reschedule without a baseline: got %v, want ErrCanceled", err)
			}

			res, err := w.Analyze(ctx)
			if err != nil {
				t.Fatalf("analyze after cancellation: %v", err)
			}
			identical(t, "analyze after cancellation", res, want)
			warm := w.Warm()

			w.Orders().Swap(core, pos)
			if _, err := w.Reschedule(canceled, edit); !errors.Is(err, sched.ErrCanceled) {
				t.Fatalf("Reschedule of the edit: got %v, want ErrCanceled", err)
			}
			if w.Warm() != warm {
				t.Fatalf("a canceled Reschedule changed Warm() from %v", warm)
			}
			res, err = w.Reschedule(ctx, edit)
			if err != nil {
				t.Fatalf("reschedule after cancellation: %v", err)
			}
			identical(t, "edit reschedule after cancellation", res, wantEdited)
			res, err = w.AnalyzeCold(ctx)
			if err != nil {
				t.Fatalf("analyze cold: %v", err)
			}
			identical(t, "analyze cold of the edit", res, wantEdited)

			w.Orders().Swap(core, pos)
			res, err = w.Reschedule(ctx, edit)
			if err != nil {
				t.Fatalf("undo reschedule: %v", err)
			}
			identical(t, "undo reschedule", res, want)
		})
	}
}
