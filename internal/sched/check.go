package sched

import (
	"fmt"

	"github.com/mia-rt/mia/internal/model"
)

// Check verifies every invariant a valid time-triggered schedule must
// satisfy, independently of the algorithm that produced it:
//
//  1. shape: one entry per task, Response = WCET + Interference,
//     per-bank rows (when present) sum to the totals;
//  2. minimal releases: Release[i] ≥ MinRelease[i];
//  3. dependencies: Release[i] ≥ Finish[j] for every edge j→i;
//  4. core serialization: on each core, tasks execute in the graph's order
//     with non-overlapping windows;
//  5. releases are as early as possible over the event grid:
//     Release[i] = max(MinRelease[i], finish of dependencies, finish of the
//     same-core predecessor) — the paper's time-triggered release rule;
//  6. interference consistency: every task's interference equals the bound
//     recomputed from scratch over the final execution windows
//     (WindowInterference), i.e. the schedule is a fixed point of the
//     analysis equations;
//  7. makespan: Makespan = max finish, and Makespan ≤ Deadline if one is
//     configured.
//
// Check is deliberately O(n²·b): it exists to cross-validate the optimized
// schedulers in tests, not to be fast.
func Check(g *model.Graph, opts Options, r *Result) error {
	n := g.NumTasks()
	if len(r.Release) != n || len(r.Response) != n || len(r.Interference) != n {
		return fmt.Errorf("sched: result shape mismatch: %d tasks, %d/%d/%d entries",
			n, len(r.Release), len(r.Response), len(r.Interference))
	}

	// (1) shape.
	for i := 0; i < n; i++ {
		id := model.TaskID(i)
		if r.Interference[i] < 0 {
			return fmt.Errorf("sched: %s has negative interference %d", id, r.Interference[i])
		}
		if r.Response[i] != g.WCET[i]+r.Interference[i] {
			return fmt.Errorf("sched: %s response %d ≠ WCET %d + interference %d",
				id, r.Response[i], g.WCET[i], r.Interference[i])
		}
		if r.PerBank != nil {
			var sum model.Cycles
			for _, v := range r.PerBank[i] {
				if v < 0 {
					return fmt.Errorf("sched: %s has negative per-bank interference", id)
				}
				sum += v
			}
			if sum != r.Interference[i] {
				return fmt.Errorf("sched: %s per-bank interference sums to %d, total says %d",
					id, sum, r.Interference[i])
			}
		}
	}

	fin := make([]model.Cycles, n)
	for i := 0; i < n; i++ {
		fin[i] = r.Finish(model.TaskID(i))
	}

	// (2) minimal releases.
	for i, minRel := range g.MinRelease {
		if r.Release[i] < minRel {
			return fmt.Errorf("sched: %s released at %d before its minimal release %d",
				model.TaskID(i), r.Release[i], minRel)
		}
	}

	// (3) dependencies.
	for _, e := range g.Edges() {
		if r.Release[e.To] < fin[e.From] {
			return fmt.Errorf("sched: %s released at %d before dependency %s finishes at %d",
				e.To, r.Release[e.To], e.From, fin[e.From])
		}
	}

	// (4) core serialization and (5) earliest-release rule.
	pred := make([]model.TaskID, n) // same-core predecessor, NoTask for firsts
	for k := 0; k < g.Cores; k++ {
		order := g.Order(model.CoreID(k))
		for pos, id := range order {
			if pos == 0 {
				pred[id] = model.NoTask
				continue
			}
			prev := order[pos-1]
			pred[id] = prev
			if r.Release[id] < fin[prev] {
				return fmt.Errorf("sched: core %d runs %s at %d overlapping predecessor %s finishing at %d",
					k, id, r.Release[id], prev, fin[prev])
			}
		}
	}
	for i, minRel := range g.MinRelease {
		id := model.TaskID(i)
		want := minRel
		for _, p := range g.Predecessors(id) {
			if fin[p] > want {
				want = fin[p]
			}
		}
		if p := pred[id]; p != model.NoTask && fin[p] > want {
			want = fin[p]
		}
		if r.Release[id] != want {
			return fmt.Errorf("sched: %s released at %d, earliest-release rule says %d",
				id, r.Release[id], want)
		}
	}

	// (6) interference consistency.
	arb := opts.EffectiveArbiter()
	perBank := make([]model.Cycles, g.Banks)
	for i := 0; i < n; i++ {
		id := model.TaskID(i)
		got := WindowInterference(g, arb, opts.SeparateCompetitors, r.Release, fin, id, perBank)
		if got != r.Interference[i] {
			return fmt.Errorf("sched: %s interference %d, window recomputation says %d",
				id, r.Interference[i], got)
		}
		if r.PerBank != nil {
			for b := range perBank {
				if perBank[b] != r.PerBank[i][b] {
					return fmt.Errorf("sched: %s bank %d interference %d, recomputation says %d",
						id, b, r.PerBank[i][b], perBank[b])
				}
			}
		}
	}

	// (7) makespan.
	var want model.Cycles
	for i := 0; i < n; i++ {
		if fin[i] > want {
			want = fin[i]
		}
	}
	if r.Makespan != want {
		return fmt.Errorf("sched: makespan %d, max finish is %d", r.Makespan, want)
	}
	if opts.Deadline > 0 && r.Makespan > opts.Deadline {
		return fmt.Errorf("sched: makespan %d exceeds deadline %d but result was reported schedulable",
			r.Makespan, opts.Deadline)
	}
	return nil
}
