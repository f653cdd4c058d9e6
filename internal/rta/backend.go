// Package rta implements the "rta" engine backend: a window-free,
// compositional upper bound on the interference of a task DAG, in the style
// of the analysis lineage the paper descends from — reference [1]
// (Altmeyer, Davis, Indrusiak, Maiza, Nelis, Reineke, "A generic and
// compositional framework for multicore response time analysis", RTNS
// 2015), which inspired Rihani's RTNS 2016 algorithm that the DATE 2020
// paper made scalable.
//
// Where the incremental scheduler charges a task only the demand of the
// tasks it is co-alive with, and the fixpoint baseline only the demand of
// window-overlapping tasks, this backend charges every task the full demand
// of all tasks on other cores that share a bank with it. That needs no
// fixed point over execution windows: one pass computes the per-task
// bounds, and the release equations are then solved under those frozen
// response times. The result is the pessimistic end of the precision
// spectrum — a cheap schedulability screen that, for monotone arbiters,
// dominates the incremental schedule task by task (engine tests pin the
// ordering).
package rta

import (
	"context"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// Algorithm is the name recorded in results produced by this backend.
const Algorithm = "rta"

// backend registers the bound with the engine. For monotone arbiters (a
// competitor set that dominates another, entry for entry, never yields a
// smaller bound — true of the round-robin family this repository ships),
// every per-bank competitor set used here dominates the set any
// window-based analysis can see, so per-task interference, response times,
// release dates and makespan are all ≥ the incremental scheduler's. It
// intentionally does NOT satisfy the window-consistency invariant of
// sched.Check — tasks are charged for interferers they never overlap —
// which is the price of compositionality.
type backend struct{}

func init() { engine.Register(engine.RTA, backend{}) }

// Analyze runs the compositional bound over the image's baseline orders.
func (backend) Analyze(ctx context.Context, img *engine.Image) (*sched.Result, error) {
	return analyzeImage(ctx, img, img.NewOrders())
}

// NewWarm returns an always-cold analyzer: the bound has no incremental
// state worth keeping (a full run is already one pass).
func (backend) NewWarm(img *engine.Image) engine.Warm {
	return engine.NewColdWarm(img, analyzeImage)
}

// analyzeImage computes the window-free bound: per-task interference from
// all other-core bank-sharers, then the release fixed point under frozen
// responses, then the deadline verdicts. Every per-task bound first checks
// ctx and returns sched.ErrCanceled once it is done.
func analyzeImage(ctx context.Context, img *engine.Image, ord *engine.Orders) (*sched.Result, error) {
	n := img.NumTasks
	arb := img.Opts.Arbiter
	deadline := img.Opts.Deadline
	separate := img.Opts.SeparateCompetitors
	res := sched.NewResult(Algorithm, n, img.Banks)

	// Per-core per-bank demand totals for the merged-competitor mode: one
	// O(n·banks) pass replaces a per-task rescan of all tasks.
	perCore := make([]model.Accesses, img.Cores*img.Banks)
	for i := 0; i < n; i++ {
		row := img.DemandRow(model.TaskID(i))
		base := int(img.CoreOf[i]) * img.Banks
		for b, d := range row {
			perCore[base+b] += d
		}
	}

	comps := make([]arbiter.Request, 0, n)
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			return nil, sched.ErrCanceled
		}
		id := model.TaskID(i)
		dstCore := img.CoreOf[i]
		row := img.DemandRow(id)
		var inter model.Cycles
		for b, d := range row {
			if d == 0 {
				continue
			}
			comps = comps[:0]
			if separate {
				// One entry per other-core task with demand on the bank,
				// in ascending task-ID order.
				for j := 0; j < n; j++ {
					if img.CoreOf[j] == dstCore {
						continue
					}
					if w := img.DemandRow(model.TaskID(j))[b]; w > 0 {
						comps = append(comps, arbiter.Request{Core: img.CoreOf[j], Demand: w})
					}
				}
			} else {
				// One merged entry per other core, in ascending core order.
				for k := 0; k < img.Cores; k++ {
					if model.CoreID(k) == dstCore {
						continue
					}
					if w := perCore[k*img.Banks+b]; w > 0 {
						comps = append(comps, arbiter.Request{Core: model.CoreID(k), Demand: w})
					}
				}
			}
			if len(comps) == 0 {
				continue
			}
			bound := arb.Bound(arbiter.Request{Core: dstCore, Demand: d}, comps, model.BankID(b))
			res.PerBank[i][b] = bound
			inter += bound
		}
		res.Interference[i] = inter
		res.Response[i] = img.WCET[i] + inter
	}

	// Same-core predecessor table from the order overlay, then the release
	// fixed point (Jacobi from the minimal releases, like the baseline's
	// release pass) under the frozen responses.
	pred := make([]model.TaskID, n)
	for i := range pred {
		pred[i] = model.NoTask
	}
	for k := 0; k < img.Cores; k++ {
		order := ord.Order(model.CoreID(k))
		for pos := 1; pos < len(order); pos++ {
			pred[order[pos]] = order[pos-1]
		}
	}
	rel := res.Release
	copy(rel, img.MinRelease)
	next := make([]model.Cycles, n)
	rounds := 0
	for {
		rounds++
		if rounds > n+2 {
			return nil, sched.Deadlock(horizon(rel, res.Response), model.NoTask)
		}
		changed := false
		for i := 0; i < n; i++ {
			id := model.TaskID(i)
			want := img.MinRelease[i]
			for _, p := range img.Preds(id) {
				if f := rel[p] + res.Response[p]; f > want {
					want = f
				}
			}
			if p := pred[id]; p != model.NoTask {
				if f := rel[p] + res.Response[p]; f > want {
					want = f
				}
			}
			next[i] = want
			if want != rel[i] {
				changed = true
			}
		}
		copy(rel, next)
		if !changed {
			break
		}
		if h := horizon(rel, res.Response); h > deadline {
			return nil, sched.DeadlineExceeded(h)
		}
	}
	res.Iterations = rounds

	res.RecomputeMakespan()
	if res.Makespan > deadline {
		return nil, sched.DeadlineExceeded(res.Makespan)
	}
	return res, nil
}

// horizon is the latest finish date implied by the given releases and
// responses.
func horizon(rel, resp []model.Cycles) model.Cycles {
	var h model.Cycles
	for i := range rel {
		if f := rel[i] + resp[i]; f > h {
			h = f
		}
	}
	return h
}
