// Package fixpoint implements the original interference analysis that the
// paper improves upon: the double fixed-point iteration of Rihani et al.,
// "Response time analysis of synchronous data flow programs on a many-core
// processor" (RTNS 2016), with the O(n⁴) worst-case complexity proved in
// Rihani's thesis.
//
// The algorithm alternates two global passes until the whole schedule
// stabilizes (Section III of the DATE 2020 paper):
//
//   - the interference fixed point recomputes, with all release dates
//     frozen, the interference received by every task from every other
//     task whose execution window overlaps (same bank, different core),
//     refreshing all response times R_i = C_i + I_i and repeating until the
//     response times are stable (growth extends windows, which can create
//     new overlaps);
//   - the release fixed point recomputes every release date as the maximum
//     of the task's minimal release date, the finish dates of its
//     dependencies and the finish date of its same-core predecessor,
//     iterating (Jacobi, from the minimal release dates up) until stable
//     under the frozen response times.
//
// Iteration starts with every release date at zero and every response time
// at its WCET, and repeats the pair of fixed points until neither changes
// anything. A first release pass under zero interference runs before the
// loop, but only to screen for deadlock and the deadline: its dates are
// not kept, so the first interference round sees every window start at
// zero, and the first release pass inside the loop sets the dates. Every
// interference round rescans all O(n²) task pairs, each inner fixed point
// may need O(n) rounds, and the outer alternation repeats them again: the
// O(n⁴) behaviour the paper measures on this baseline.
//
// Precision: the analysis equations (earliest releases + window-overlap
// interference) admit several consistent solutions. The incremental
// scheduler constructs the *least* fixed point — the operational
// time-triggered schedule. This global iteration freezes release dates
// while response times inflate, so transiently extended windows can create
// overlaps that then sustain themselves; on such instances the baseline
// converges to a greater, more pessimistic fixed point (both outcomes pass
// the independent sched.Check validator; the integration tests assert the
// baseline never reports *less* interference than the incremental
// scheduler and that the two coincide on instances without this feedback,
// such as the paper's Figure 1). The paper's own evaluation compares the
// two algorithms on runtime only. Do not use this package for anything but
// baseline measurements.
//
// Like the incremental package, the iteration core reads a compiled
// engine.Image; the per-window interference recomputation is the image-side
// twin of sched.WindowInterference, kept bit-identical to it (the checker
// keeps using the graph-based original, so a port bug cannot hide in both).
// The package registers the engine backend "fixpoint": callers
// engine.Compile a graph once and run it through Backend.Analyze.
package fixpoint

import (
	"context"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// Algorithm is the name recorded in results produced by this package.
const Algorithm = "fixpoint"

// analyze runs the double fixed-point iteration over a compiled image,
// reading the per-core orders from ord. Each interference round first
// checks ctx and returns sched.ErrCanceled once it is done.
func analyze(ctx context.Context, img *engine.Image, ord *engine.Orders) (*sched.Result, error) {
	n := img.NumTasks
	deadline := img.Opts.Deadline
	res := sched.NewResult(Algorithm, n, img.Banks)
	releases := NewReleaseSolver(img, ord)

	rel := res.Release
	resp := res.Response
	inter := res.Interference
	copy(resp, img.WCET)

	fin := make([]model.Cycles, n)
	newRel := make([]model.Cycles, n)
	newInter := make([]model.Cycles, n)
	w := newWindower(img)

	// Screen the interference-free schedule for deadlock and the deadline.
	// Its dates go to the scratch newRel and are not kept: the first
	// interference round runs with rel all zero.
	if _, err := releases.Solve(resp, newRel, deadline); err != nil {
		return nil, err
	}

	// Safety bound on outer rounds: converging instances stabilize within
	// O(n) alternations; exceeding the bound means the release and
	// interference passes are feeding an oscillation, which the original
	// algorithm only exits by crossing the deadline.
	maxOuter := 4*n + 16

	for outer := 0; ; outer++ {
		if outer >= maxOuter {
			return nil, &sched.UnschedulableError{
				Reason: "deadlock", Time: horizon(rel, resp), Task: model.NoTask,
			}
		}
		res.Iterations = outer + 1
		changed := false

		// First fixed point: interference under frozen release dates. Each
		// round rescans all O(n²) task pairs; response-time growth extends
		// windows, which can create new overlaps, so the pass repeats until
		// the response times stop moving — up to O(n) rounds.
		for {
			if ctx.Err() != nil {
				return nil, sched.ErrCanceled
			}
			for i := 0; i < n; i++ {
				fin[i] = rel[i] + resp[i]
			}
			for i := 0; i < n; i++ {
				newInter[i] = w.interference(rel, fin, model.TaskID(i), res.PerBank[i])
			}
			interChanged := false
			for i := 0; i < n; i++ {
				if newInter[i] != inter[i] {
					interChanged = true
				}
			}
			for i := 0; i < n; i++ {
				if newInter[i] != inter[i] {
					inter[i] = newInter[i]
					resp[i] = img.WCET[i] + inter[i]
				}
			}
			if !interChanged {
				break
			}
			changed = true
			if h := horizon(rel, resp); h > deadline {
				return nil, sched.DeadlineExceeded(h)
			}
		}

		// Release pass: recompute all release dates from the minimal
		// releases up, under the frozen response times.
		if _, err := releases.Solve(resp, newRel, deadline); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if rel[i] != newRel[i] {
				changed = true
			}
		}
		copy(rel, newRel)

		if !changed {
			break
		}
	}

	res.RecomputeMakespan()
	if res.Makespan > deadline {
		return nil, sched.DeadlineExceeded(res.Makespan)
	}
	return res, nil
}

// windower recomputes one task's window-overlap interference from the
// image: the exact semantics of sched.WindowInterference (overlapping
// interferers gathered in ascending task-ID order, competitor demands
// merged per core in first-seen order unless the options request separate
// competitors, one arbiter bound per shared bank), with the gather and
// competitor buffers hoisted out of the per-call path. The schedule checker
// keeps using the graph-based original, so the two implementations verify
// each other through the differential suites.
type windower struct {
	img         *engine.Image
	arb         arbiter.Arbiter
	separate    bool
	totalDemand []model.Accesses // per task, for the zero-demand early out
	overlapping []model.TaskID
	comps       []arbiter.Request
}

func newWindower(img *engine.Image) *windower {
	w := &windower{
		img:         img,
		arb:         img.Opts.Arbiter,
		separate:    img.Opts.SeparateCompetitors,
		totalDemand: make([]model.Accesses, img.NumTasks),
	}
	for i := 0; i < img.NumTasks; i++ {
		for _, d := range img.DemandRow(model.TaskID(i)) {
			w.totalDemand[i] += d
		}
	}
	return w
}

// interference computes the total interference received by dst given every
// task's window, writing the per-bank split into perBank (length Banks).
func (w *windower) interference(rel, fin []model.Cycles, dst model.TaskID, perBank []model.Cycles) model.Cycles {
	img := w.img
	var total model.Cycles
	for b := range perBank {
		perBank[b] = 0
	}
	if w.totalDemand[dst] == 0 {
		return 0
	}
	dstCore := img.Core[dst]
	w.overlapping = w.overlapping[:0]
	for i := 0; i < img.NumTasks; i++ {
		id := model.TaskID(i)
		if id == dst || img.Core[id] == dstCore {
			continue
		}
		if rel[dst] < fin[id] && rel[id] < fin[dst] {
			w.overlapping = append(w.overlapping, id)
		}
	}
	if len(w.overlapping) == 0 {
		return 0
	}
	dstRow := img.DemandRow(dst)
	for b := 0; b < img.Banks; b++ {
		demand := dstRow[b]
		if demand == 0 {
			continue
		}
		comps := w.comps[:0]
		for _, src := range w.overlapping {
			wd := img.DemandRow(src)[b]
			if wd == 0 {
				continue
			}
			srcCore := img.Core[src]
			if w.separate {
				comps = append(comps, arbiter.Request{Core: srcCore, Demand: wd})
				continue
			}
			merged := false
			for j := range comps {
				if comps[j].Core == srcCore {
					comps[j].Demand += wd
					merged = true
					break
				}
			}
			if !merged {
				comps = append(comps, arbiter.Request{Core: srcCore, Demand: wd})
			}
		}
		w.comps = comps
		if len(comps) == 0 {
			continue
		}
		bound := w.arb.Bound(arbiter.Request{Core: dstCore, Demand: demand}, comps, model.BankID(b))
		perBank[b] = bound
		total += bound
	}
	return total
}

// ReleaseSolver solves the release equations
// rel_i = max(m_i, max_{j∈deps} rel_j+R_j, rel_pred+R_pred) under frozen
// response times R, by Jacobi iteration from the minimal release dates m.
// It is the baseline's release pass, and the rta bound solves its releases
// with it once.
type ReleaseSolver struct {
	img  *engine.Image
	pred []model.TaskID // same-core predecessor per task, or model.NoTask
	next []model.Cycles
}

// NewReleaseSolver builds the same-core predecessor table from the per-core
// execution orders in ord.
func NewReleaseSolver(img *engine.Image, ord *engine.Orders) *ReleaseSolver {
	n := img.NumTasks
	s := &ReleaseSolver{img: img, pred: make([]model.TaskID, n), next: make([]model.Cycles, n)}
	for i := range s.pred {
		s.pred[i] = model.NoTask
	}
	for k := 0; k < img.Cores; k++ {
		order := ord.Order(model.CoreID(k))
		for pos := 1; pos < len(order); pos++ {
			s.pred[order[pos]] = order[pos-1]
		}
	}
	return s
}

// Solve writes into out the release dates under the response times resp
// and returns the number of rounds it ran, counting the last one, which
// changed nothing. A round that changed a date and left the horizon past
// deadline fails with sched.DeadlineExceeded. Without a cycle between the
// DAG and the per-core orders the dates settle within n+1 rounds, so a
// round past n+2 fails with sched.Deadlock: the cross-core deadlock.
func (s *ReleaseSolver) Solve(resp, out []model.Cycles, deadline model.Cycles) (int, error) {
	img := s.img
	copy(out, img.MinRelease)
	for round := 1; ; round++ {
		if round > img.NumTasks+2 {
			return round, sched.Deadlock(horizon(out, resp), model.NoTask)
		}
		changed := false
		for i := range s.next {
			id := model.TaskID(i)
			want := img.MinRelease[i]
			for _, p := range img.Preds(id) {
				if f := out[p] + resp[p]; f > want {
					want = f
				}
			}
			if p := s.pred[id]; p != model.NoTask {
				if f := out[p] + resp[p]; f > want {
					want = f
				}
			}
			s.next[i] = want
			if want != out[i] {
				changed = true
			}
		}
		copy(out, s.next)
		if !changed {
			return round, nil
		}
		if h := horizon(out, resp); h > deadline {
			return round, sched.DeadlineExceeded(h)
		}
	}
}

func horizon(rel, resp []model.Cycles) model.Cycles {
	var h model.Cycles
	for i := range rel {
		if f := rel[i] + resp[i]; f > h {
			h = f
		}
	}
	return h
}
