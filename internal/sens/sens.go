// Package sens performs sensitivity analysis on interference-aware
// schedules: which tasks are critical, and how many extra cycles can each
// task's WCET absorb before a deadline breaks? Each probe is a full
// reanalysis, so the package is only practical on top of the paper's O(n²)
// algorithm — with the O(n⁴) baseline a criticality sweep of a 384-task
// graph would cost hours instead of milliseconds.
//
// Every probe mutates a WCET — a quantity a compiled engine.Image freezes —
// so probes compile the grown instance and analyze it with an engine
// backend. Cancellation flows from the caller's context into each probe's
// analysis.
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

// feasible reports whether the graph, with extra cycles added to task id's
// WCET, meets the deadline.
func feasible(ctx context.Context, g *model.Graph, opts sched.Options, deadline model.Cycles, id model.TaskID, extra int64) bool {
	c := g.Clone()
	c.WCET[id] += model.Cycles(extra)
	probe := opts
	probe.Deadline = deadline
	img, err := engine.Compile(c, probe)
	if err != nil {
		return false
	}
	_, err = eng.Analyze(ctx, img)
	return err == nil
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
		ok := func(extra int64) bool {
			return feasible(ctx, g, opts, deadline, id, extra)
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
