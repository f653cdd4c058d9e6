// Package sens performs sensitivity analysis on interference-aware
// schedules: how much can execution times or memory demands grow before a
// deadline breaks, and which tasks are critical? Each probe is a full
// reanalysis, so the whole package is only practical on top of the paper's
// O(n²) algorithm — with the O(n⁴) baseline a single sensitivity sweep of a
// 384-task graph would cost hours instead of milliseconds.
//
// Every probe mutates WCETs or demands — the quantities a compiled
// engine.Image freezes — so probes compile a scaled instance and analyze it
// through the engine façade (there is nothing to warm-start across probes:
// consecutive probes differ in every task's parameters, not in an order
// suffix). Cancellation flows from the caller's context into each probe's
// analysis.
//
// Scales are expressed in permille (integer thousandths) to keep the
// analysis exact and deterministic: a scale of 1250 means every WCET (or
// demand) is multiplied by 1.25, rounding up.
package sens

import (
	"context"
	"fmt"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

// eng runs every probe: the O(n²) incremental analysis.
var eng = engine.MustNew(engine.Incremental)

// scaleCap bounds the search: growth beyond 64× means the deadline is
// effectively unconstraining.
const scaleCap = 64_000

// feasible reports whether the graph, transformed by apply(permille),
// meets the deadline.
func feasible(ctx context.Context, g *model.Graph, opts sched.Options, deadline model.Cycles, apply func(*model.Graph, int64), p int64) bool {
	c := g.Clone()
	apply(c, p)
	probe := opts
	probe.Deadline = deadline
	img, err := engine.Compile(c, probe)
	if err != nil {
		return false
	}
	_, err = eng.Analyze(ctx, img)
	return err == nil
}

// maxScale binary-searches the largest feasible permille for a monotone
// transformation. It returns 0 if even scale 0 is infeasible and scaleCap
// if the cap never becomes infeasible.
func maxScale(ctx context.Context, g *model.Graph, opts sched.Options, deadline model.Cycles, apply func(*model.Graph, int64)) (int64, error) {
	if deadline <= 0 {
		return 0, fmt.Errorf("sens: sensitivity needs a positive deadline")
	}
	if !feasible(ctx, g, opts, deadline, apply, 1000) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		// Below nominal: search [0, 1000).
		if !feasible(ctx, g, opts, deadline, apply, 0) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return 0, fmt.Errorf("sens: infeasible even at scale 0")
		}
		lo, hi := int64(0), int64(1000) // lo feasible, hi infeasible
		for lo+1 < hi {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			mid := (lo + hi) / 2
			if feasible(ctx, g, opts, deadline, apply, mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo, nil
	}
	// At or above nominal: double until infeasible, then bisect.
	lo, hi := int64(1000), int64(2000)
	for hi <= scaleCap && feasible(ctx, g, opts, deadline, apply, hi) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		lo, hi = hi, hi*2
	}
	if hi > scaleCap {
		return scaleCap, nil
	}
	for lo+1 < hi {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		mid := (lo + hi) / 2
		if feasible(ctx, g, opts, deadline, apply, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return lo, nil
}

// scaleWCETs multiplies every WCET by p/1000, rounding up.
func scaleWCETs(g *model.Graph, p int64) {
	for i, c := range g.WCET {
		g.WCET[i] = model.Cycles((int64(c)*p + 999) / 1000)
	}
}

// scaleDemands multiplies every per-bank demand by p/1000, rounding up.
func scaleDemands(g *model.Graph, p int64) {
	for i, d := range g.Demand {
		if d > 0 {
			g.Demand[i] = model.Accesses((int64(d)*p + 999) / 1000)
		}
	}
}

// MaxWCETScale returns the largest permille factor by which all WCETs can
// be scaled while the schedule still meets the deadline (1000 = nominal).
func MaxWCETScale(ctx context.Context, g *model.Graph, opts sched.Options, deadline model.Cycles) (int64, error) {
	return maxScale(ctx, g, opts, deadline, scaleWCETs)
}

// MaxDemandScale returns the largest permille factor by which all memory
// demands can be scaled while meeting the deadline. Demands only influence
// interference, so this measures the system's robustness against
// underestimated access counts.
func MaxDemandScale(ctx context.Context, g *model.Graph, opts sched.Options, deadline model.Cycles) (int64, error) {
	return maxScale(ctx, g, opts, deadline, scaleDemands)
}

// TaskSlack is the per-task criticality metric: the extra WCET (in cycles)
// task id can absorb, alone, before the deadline breaks.
type TaskSlack struct {
	Task  model.TaskID
	Slack model.Cycles
}

// Criticality computes every task's individual WCET slack under the
// deadline and returns the list ordered by task ID. Tasks with zero slack
// are the critical ones: any overrun breaks the schedule.
func Criticality(ctx context.Context, g *model.Graph, opts sched.Options, deadline model.Cycles) ([]TaskSlack, error) {
	if deadline <= 0 {
		return nil, fmt.Errorf("sens: sensitivity needs a positive deadline")
	}
	probe := opts
	probe.Deadline = deadline
	nominal, err := engine.Compile(g, probe)
	if err != nil {
		return nil, fmt.Errorf("sens: nominal system invalid: %w", err)
	}
	if _, err := eng.Analyze(ctx, nominal); err != nil {
		return nil, fmt.Errorf("sens: nominal system infeasible: %w", err)
	}
	out := make([]TaskSlack, g.NumTasks())
	for i := 0; i < g.NumTasks(); i++ {
		id := model.TaskID(i)
		grow := func(c *model.Graph, extra int64) {
			c.WCET[id] += model.Cycles(extra)
		}
		ok := func(extra int64) bool {
			return feasible(ctx, g, opts, deadline, grow, extra)
		}
		// Doubling then bisection over absolute extra cycles.
		lo, hi := int64(0), int64(1)
		capExtra := int64(deadline) + 1
		for hi <= capExtra && ok(hi) {
			lo, hi = hi, hi*2
		}
		if hi > capExtra {
			lo = capExtra
		} else {
			for lo+1 < hi {
				mid := (lo + hi) / 2
				if ok(mid) {
					lo = mid
				} else {
					hi = mid
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = TaskSlack{Task: id, Slack: model.Cycles(lo)}
	}
	return out, nil
}
