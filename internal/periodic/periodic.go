// Package periodic models the activation pattern the paper's introduction
// describes — "these programs are made of periodic loops that activate
// tasks" — by unrolling a task graph over several periods and checking the
// resulting schedule against per-iteration deadlines.
//
// Unrolling iteration k of the application shifts every minimal release
// date by k·period and adds a dependency from each task's k-th instance to
// its (k+1)-th (a task cannot re-execute before its previous job finished).
// Different tasks of consecutive iterations may overlap — pipelined
// execution — and the interference analysis accounts for the resulting
// cross-iteration contention exactly as for any other pair of tasks. This
// is how a single-iteration analysis extends to the steady state without
// any new theory: the time-triggered release dates computed on the
// unrolled graph remain valid for every execution.
package periodic

import (
	"fmt"

	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// Unroll builds the graph of `iterations` consecutive activations of g with
// the given period: task i of iteration k has ID k·n + i, minimal release
// MinRelease(i) + k·period, and depends on its own (k−1)-th instance in
// addition to the original dependencies within iteration k. Per-core
// execution orders concatenate iteration by iteration.
func Unroll(g *model.Graph, period model.Cycles, iterations int) (*model.Graph, error) {
	if iterations < 1 {
		return nil, fmt.Errorf("periodic: %d iterations", iterations)
	}
	if period < 0 {
		return nil, fmt.Errorf("periodic: negative period %d", period)
	}
	n := g.NumTasks()
	b := model.NewBuilder(g.Cores, g.Banks)
	for k := 0; k < iterations; k++ {
		for i := 0; i < n; i++ {
			name := g.Name(model.TaskID(i))
			if iterations > 1 {
				name = fmt.Sprintf("%s@%d", name, k)
			}
			b.AddTask(model.TaskSpec{
				Name:       name,
				WCET:       g.WCET[i],
				Core:       g.Core[i],
				MinRelease: g.MinRelease[i] + model.SatMulCycles(model.Cycles(k), period),
				Local:      g.Local[i],
			})
		}
	}
	job := func(k int, i model.TaskID) model.TaskID { return model.TaskID(k*n + int(i)) }
	for k := 0; k < iterations; k++ {
		for _, e := range g.Edges() {
			b.AddEdge(job(k, e.From), job(k, e.To), e.Words)
		}
		if k > 0 {
			for i := 0; i < n; i++ {
				// The job-level self-dependency carries no data volume:
				// state stays in the task's own bank (its Local accesses).
				b.AddEdge(job(k-1, model.TaskID(i)), job(k, model.TaskID(i)), 0)
			}
		}
	}
	for c := 0; c < g.Cores; c++ {
		var order []model.TaskID
		for k := 0; k < iterations; k++ {
			for _, id := range g.Order(model.CoreID(c)) {
				order = append(order, job(k, id))
			}
		}
		b.SetOrder(model.CoreID(c), order)
	}
	return b.Build()
}

// IterationMakespans splits an unrolled schedule back into per-iteration
// completion dates: entry k is the latest finish among iteration k's jobs.
func IterationMakespans(res *sched.Result, tasksPerIteration, iterations int) []model.Cycles {
	out := make([]model.Cycles, iterations)
	for k := 0; k < iterations; k++ {
		for i := 0; i < tasksPerIteration; i++ {
			if f := res.Finish(model.TaskID(k*tasksPerIteration + i)); f > out[k] {
				out[k] = f
			}
		}
	}
	return out
}

// CheckDeadlines verifies the implicit-deadline discipline on an unrolled
// schedule: iteration k (released at k·period) must complete by
// (k+1)·period. It returns the first violating iteration, or -1 if all
// iterations meet their deadline.
func CheckDeadlines(res *sched.Result, tasksPerIteration, iterations int, period model.Cycles) int {
	spans := IterationMakespans(res, tasksPerIteration, iterations)
	for k, fin := range spans {
		if fin > model.SatMulCycles(model.Cycles(k+1), period) {
			return k
		}
	}
	return -1
}

// SteadyStateSlack reports the schedulability margin of the last analyzed
// iteration: period − (last iteration makespan − its release offset). A
// non-negative slack on the last iteration of a sufficiently long unroll
// indicates the pipeline has reached a sustainable steady state.
func SteadyStateSlack(res *sched.Result, tasksPerIteration, iterations int, period model.Cycles) model.Cycles {
	spans := IterationMakespans(res, tasksPerIteration, iterations)
	last := iterations - 1
	return model.SatMulCycles(model.Cycles(last+1), period) - spans[last]
}
