package engine

import (
	"context"

	"github.com/mia-rt/mia/internal/sched"
)

// ColdFunc is one cold analysis of an image under a given order overlay,
// canceled through ctx — the shape backends without warm-start state expose
// to NewColdWarm.
type ColdFunc func(ctx context.Context, img *Image, ord *Orders) (*sched.Result, error)

// NewColdWarm wraps a cold analysis function into the Warm interface for
// backends without incremental state (fixpoint, rta): every run — Analyze,
// AnalyzeCold, or Reschedule — is a full cold analysis of the current
// Orders, edits carry no information, and Warm() stays false so serving
// layers report these runs as cold instead of pretending to replay.
func NewColdWarm(img *Image, run ColdFunc) Warm {
	return &coldWarm{img: img, ord: img.NewOrders(), run: run}
}

type coldWarm struct {
	img *Image
	ord *Orders
	run ColdFunc
}

func (w *coldWarm) Orders() *Orders { return w.ord }

func (w *coldWarm) Warm() bool { return false }

func (w *coldWarm) Analyze(ctx context.Context) (*sched.Result, error) {
	return w.run(ctx, w.img, w.ord)
}

func (w *coldWarm) AnalyzeCold(ctx context.Context) (*sched.Result, error) {
	return w.Analyze(ctx)
}

func (w *coldWarm) Reschedule(ctx context.Context, edits ...Edit) (*sched.Result, error) {
	return w.Analyze(ctx)
}
