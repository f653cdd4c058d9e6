package fixpoint

import (
	"context"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/sched"
)

// backend adapts this package to the engine registry. The fixed-point
// baseline has no warm-start state, so its Warm instances run every request
// cold over the current order overlay (engine.NewColdWarm).
type backend struct{}

func init() { engine.Register(engine.Fixpoint, backend{}) }

// Analyze runs one cold analysis of the image's baseline orders.
func (backend) Analyze(ctx context.Context, img *engine.Image) (*sched.Result, error) {
	return analyze(ctx, img, img.NewOrders())
}

// NewWarm returns an always-cold analyzer over the image.
func (backend) NewWarm(img *engine.Image) engine.Warm {
	return engine.NewColdWarm(img, analyze)
}
