package incremental

import (
	"context"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/sched"
)

// backend adapts this package to the engine registry: cold Analyze builds
// per-run state over the shared image (safe for concurrent use — the image
// is read-only), NewWarm hands out single-goroutine warm Schedulers.
type backend struct{}

func init() { engine.Register(engine.Incremental, backend{}) }

// Analyze runs one cold analysis of the image's baseline orders.
func (backend) Analyze(ctx context.Context, img *engine.Image) (*sched.Result, error) {
	st := newState(img, img.NewOrders())
	st.cancel = ctx.Done()
	return st.run()
}

// NewWarm returns a warm-start Scheduler over the image.
func (backend) NewWarm(img *engine.Image) engine.Warm { return newScheduler(img) }
