// Package incremental implements the paper's contribution: an O(n²)
// algorithm computing the static time-triggered schedule (release dates and
// worst-case response times under memory interference) of a task DAG mapped
// onto a many-core platform — Algorithm 1 of "Scaling Up the Memory
// Interference Analysis for Hard Real-Time Many-Core Systems" (DATE 2020).
//
// Instead of the global fixed-point iterations of the original analysis
// (Rihani et al., RTNS 2016 — see the sibling fixpoint package), the
// schedule is built incrementally behind a monotonically advancing time
// cursor t. Tasks are partitioned into three groups:
//
//   - Closed: t is past their finish date; release date and response time
//     are final.
//   - Alive: t lies in their execution window; the release date is final
//     but the response time may still grow as future tasks join.
//   - Future: t is before their release; nothing is computed yet.
//
// At each event the cursor jumps to the nearest finish date of an alive
// task or minimal release date of a future task. Closing tasks release
// their dependents; each core then opens the next task of its fixed
// execution order if it is ready. Interference is only exchanged between
// *alive* tasks: closed tasks cannot overlap the new ones, and future tasks
// will contribute when they open. Because at most one task per core is
// alive at any instant, the alive set is bounded by the core count c, so
// each of the O(n) events costs O(c²·b) arbiter work — O(c²·b·n²) overall
// in the worst case, i.e. O(n²) for a fixed platform.
//
// Soundness rests on the monotonicity hypothesis of Section II.C: adding a
// task to the schedule can only increase the interference received by
// others, hence finish dates only move later and a release date, once
// assigned, never needs revisiting.
//
// The event loop reads a compiled engine.Image — flat per-task arrays, CSR
// adjacency, one flat demand backing array — rather than the pointer-rich
// model.Graph, and runs the per-core orders from a mutable engine.Orders
// overlay. The package registers the engine backend "incremental": callers
// engine.Compile a graph once and run it through Backend.Analyze, or through
// the warm-start Scheduler that NewWarm hands out.
package incremental

import (
	"math/bits"
	"sort"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// Algorithm is the name recorded in results produced by this package.
const Algorithm = "incremental"

// slot is the per-core scheduling state: the alive task of the core (if
// any) and its accumulated per-bank competitor demands.
type slot struct {
	task   model.TaskID // NoTask when the core is idle
	finish model.Cycles
	// comp[b] holds the competitor demands accumulated against this task
	// on bank b, grouped per initiator core unless the options request
	// separate competitors. Slices are reused across tasks occupying the
	// slot to avoid per-event allocation.
	comp [][]arbiter.Request
	// terms[b][i] caches the additive per-competitor bound term
	// Bound(dst, {comp[b][i]}, b) for the task currently in the slot: the
	// memoized running-IBUS state of the fast path. When an interferer's
	// demand grows, only its term is re-evaluated and the delta applied —
	// one single-competitor arbiter call per update instead of a rescan of
	// the whole competitor set. Maintained only on the fast path; reset
	// together with comp when a new task opens.
	terms [][]model.Cycles
	// compIdx[b][c] is the position in comp[b] of initiator core c's merged
	// entry, or -1 when core c has no entry yet, so the fast path locates a
	// growing competitor in O(1) instead of scanning comp[b]. Maintained
	// only on the merged fast path; the uncached oracle keeps its linear
	// scan so an index bug cannot hide in both sides of the differential
	// tests. Invariant: compIdx[b][c] >= 0 exactly for the cores present in
	// comp[b] (when maintained), so clearing walks the entries, not the
	// whole core range.
	compIdx [][]int32
}

type state struct {
	img      *engine.Image
	ord      *engine.Orders
	arb      arbiter.Arbiter
	deadline model.Cycles
	separate bool
	// fast selects the cached-IBUS fast path: the arbiter's bound
	// decomposes per competitor and the options did not request the
	// uncached reference oracle.
	fast   bool
	trace  func(sched.Event)
	cancel <-chan struct{} // ctx.Done() of the current run

	res *sched.Result

	depsLeft []int          // unresolved dependencies per task
	headIdx  []int          // next position in each core's execution order
	slots    []slot         // per-core alive state
	minRels  []model.Cycles // sorted minimal release dates of tasks that have one
	relPtr   int

	t      model.Cycles // cursor: the event instant about to be processed
	closed int
	events int

	// ckpt, when non-nil, is invoked at the top of every event iteration,
	// before the event at the current cursor is processed; returning true
	// ends the loop with the result as the hook left it. The warm-start
	// Scheduler captures checkpoints through it during Analyze and, during
	// a Reschedule, ends a replay that has reached a time-shifted state of
	// the committed run; it is nil for one-shot runs.
	ckpt func() bool

	// scratch is the reusable one-element request slice of the additive
	// fast path; keeping it in state avoids a heap allocation on every
	// interference update (the slice escapes through the Arbiter
	// interface).
	scratch []arbiter.Request
}

// newState builds the run state over a compiled image, reading the per-core
// orders from ord. The image's compiled options select arbiter (whose
// additivity selects the fast path), deadline, competitor merging and trace;
// callers set cancel per run.
func newState(img *engine.Image, ord *engine.Orders) *state {
	n := img.NumTasks
	s := &state{
		img:      img,
		ord:      ord,
		arb:      img.Opts.Arbiter,
		deadline: img.Opts.Deadline,
		separate: img.Opts.SeparateCompetitors,
		fast:     img.Opts.Arbiter.Additive(),
		trace:    img.Opts.Trace,
		res:      sched.NewResult(Algorithm, n, img.Banks),
		depsLeft: make([]int, n),
		headIdx:  make([]int, img.Cores),
		slots:    make([]slot, img.Cores),
		scratch:  make([]arbiter.Request, 1),
	}
	for _, m := range img.MinRelease {
		if m > 0 {
			s.minRels = append(s.minRels, m)
		}
	}
	sort.Slice(s.minRels, func(i, j int) bool { return s.minRels[i] < s.minRels[j] })
	for k := range s.slots {
		s.slots[k].comp = make([][]arbiter.Request, img.Banks)
		s.slots[k].terms = make([][]model.Cycles, img.Banks)
		s.slots[k].compIdx = make([][]int32, img.Banks)
		for b := range s.slots[k].compIdx {
			s.slots[k].compIdx[b] = make([]int32, img.Cores)
		}
	}
	s.reset()
	return s
}

// reset rewinds the state to the initial instant (cursor 0, nothing closed,
// nothing alive) without allocating: every buffer is truncated or zeroed in
// place so that a pooled state can re-run — possibly after the order
// overlay was permuted — at zero steady-state allocation cost. Min-release
// dates and dependency counts are order-independent, so they are rebuilt
// from the image without re-sorting.
//
//mia:hotpath
func (s *state) reset() {
	for i := range s.depsLeft {
		s.depsLeft[i] = s.img.PredCount(model.TaskID(i))
	}
	for k := range s.headIdx {
		s.headIdx[k] = 0
	}
	for k := range s.slots {
		sl := &s.slots[k]
		sl.task = model.NoTask
		sl.finish = 0
		for b := range sl.comp {
			sl.comp[b] = sl.comp[b][:0]
			sl.terms[b] = sl.terms[b][:0]
			idx := sl.compIdx[b]
			for c := range idx {
				idx[c] = -1
			}
		}
	}
	s.relPtr = 0
	s.t = 0
	s.closed = 0
	s.events = 0
	s.res.Reset()
}

func (s *state) emit(kind sched.EventKind, t model.Cycles, task model.TaskID, value model.Cycles) {
	if s.trace != nil {
		s.trace(sched.Event{Kind: kind, Time: t, Task: task, Value: value})
	}
}

// run is the event loop of Algorithm 1.
//
//mia:hotpath steady-state event loop: 0 allocs/op pinned by alloc_test.go
func (s *state) run() (*sched.Result, error) {
	n := s.img.NumTasks
	for s.closed < n {
		if s.cancel != nil {
			select {
			case <-s.cancel:
				return nil, sched.ErrCanceled
			default:
			}
		}
		// Checkpoint hook: the state right here — before the event at s.t
		// is processed — is exactly what a warm restart needs to capture,
		// because re-entering this loop with a restored state replays the
		// event at s.t and everything after it with no special casing. It
		// is also the state a replay compares with the committed run's
		// checkpoints; on a match the hook has filled the rest of the
		// result and the loop ends here.
		if s.ckpt != nil && s.ckpt() {
			break
		}
		s.events++
		s.emit(sched.EventCursor, s.t, model.NoTask, 0)

		// Step 1-2: close alive tasks ending at t and release dependents.
		s.closeAt(s.t)

		// Step 3-4: open ready heads of the per-core execution orders.
		// Newly opened tasks immediately join the alive set, so several
		// tasks opening at the same event see each other (step 5 pairing
		// happens inside open).
		s.openAt(s.t)

		if s.closed == n {
			break
		}

		// Step 6: advance the cursor to the next event.
		tNext := model.Infinity
		for k := range s.slots {
			if s.slots[k].task != model.NoTask && s.slots[k].finish < tNext {
				tNext = s.slots[k].finish
			}
		}
		for s.relPtr < len(s.minRels) && s.minRels[s.relPtr] <= s.t {
			s.relPtr++
		}
		if s.relPtr < len(s.minRels) && s.minRels[s.relPtr] < tNext {
			tNext = s.minRels[s.relPtr]
		}
		if tNext == model.Infinity {
			return nil, sched.Deadlock(s.t, s.firstBlocked())
		}
		if tNext > s.deadline {
			return nil, sched.DeadlineExceeded(tNext)
		}
		s.t = tNext
	}
	s.res.Iterations = s.events
	s.res.RecomputeMakespan()
	if s.res.Makespan > s.deadline {
		return nil, sched.DeadlineExceeded(s.res.Makespan)
	}
	return s.res, nil
}

// closeAt closes every alive task whose finish date equals t.
//
//mia:hotpath
func (s *state) closeAt(t model.Cycles) {
	for k := range s.slots {
		sl := &s.slots[k]
		if sl.task == model.NoTask || sl.finish != t {
			continue
		}
		id := sl.task
		s.res.Response[id] = s.img.WCET[id] + s.res.Interference[id]
		for _, succ := range s.img.Succs(id) {
			s.depsLeft[succ]--
		}
		sl.task = model.NoTask
		s.closed++
		s.emit(sched.EventClose, t, id, 0)
	}
}

// openAt opens, on every idle core, the head of the execution order if its
// dependencies are closed and its minimal release date has passed, fixing
// its release date to t and exchanging interference with the alive set.
//
//mia:hotpath
func (s *state) openAt(t model.Cycles) {
	for k := range s.slots {
		sl := &s.slots[k]
		if sl.task != model.NoTask {
			continue // core busy: at most one alive task per core
		}
		order := s.ord.Order(model.CoreID(k))
		if s.headIdx[k] >= len(order) {
			continue
		}
		id := order[s.headIdx[k]]
		if s.depsLeft[id] > 0 || s.img.MinRelease[id] > t {
			continue
		}
		s.headIdx[k]++
		sl.task = id
		s.res.Release[id] = t
		s.res.Interference[id] = 0
		sl.finish = t + s.img.WCET[id]
		for b := range sl.comp {
			for _, r := range sl.comp[b] {
				sl.compIdx[b][r.Core] = -1
			}
			sl.comp[b] = sl.comp[b][:0]
			sl.terms[b] = sl.terms[b][:0]
		}
		s.emit(sched.EventOpen, t, id, 0)

		// Step 5: exchange interference with every other alive task. Each
		// unordered pair of tasks becomes co-alive exactly when the later
		// one opens, so processing pairs here accounts every interference
		// exactly once — the "if src not already accounted" bookkeeping of
		// Algorithm 1 is implicit.
		for k2 := range s.slots {
			other := &s.slots[k2]
			if k2 == k || other.task == model.NoTask {
				continue
			}
			s.addCompetitor(t, sl, id, other.task)
			s.addCompetitor(t, other, other.task, id)
		}
	}
}

// addCompetitor accounts src's demand against dst (alive in slot sl) on
// every bank they share, and refreshes dst's interference and finish date.
// The shared banks are the AND of the two tasks' demand bitsets, walked
// word-at-a-time in ascending bank order — the blocked form of the former
// per-bank scan over the zero-extended demand rows, visiting exactly the
// banks that scan would have charged, in the same order.
//
//mia:hotpath
func (s *state) addCompetitor(t model.Cycles, sl *slot, dst, src model.TaskID) {
	var grew model.Cycles
	dstRow := s.img.DemandRow(dst)
	srcRow := s.img.DemandRow(src)
	srcMask := s.img.DemandMaskRow(src)
	for wi, mw := range s.img.DemandMaskRow(dst) {
		mw &= srcMask[wi]
		for mw != 0 {
			b := wi<<6 + bits.TrailingZeros64(mw)
			mw &= mw - 1
			grew += s.accountOnBank(sl, dst, src, model.BankID(b), dstRow[b], srcRow[b])
		}
	}
	if grew == 0 {
		return
	}
	s.res.Interference[sl.task] += grew
	sl.finish += grew
	s.emit(sched.EventInterference, t, sl.task, s.res.Interference[sl.task])
}

// accountOnBank merges src's demand w into dst's competitor set on bank b
// and returns the growth of dst's interference bound on that bank.
//
//mia:hotpath
func (s *state) accountOnBank(sl *slot, dst, src model.TaskID, b model.BankID, d, w model.Accesses) model.Cycles {
	dstReq := arbiter.Request{Core: s.img.Core[dst], Demand: d}
	srcCore := s.img.Core[src]
	comps := sl.comp[b]

	if s.separate {
		// Every task is its own competitor entry.
		req := arbiter.Request{Core: srcCore, Demand: w}
		sl.comp[b] = append(comps, req)
		if s.fast {
			term := arbiter.One(s.arb, dstReq, req, b, s.scratch)
			sl.terms[b] = append(sl.terms[b], term)
			s.res.PerBank[sl.task][b] += term
			return term
		}
		return s.recomputeBank(sl, dstReq, b)
	}

	if !s.fast {
		// Reference oracle: locate src's entry by linear scan (the index is
		// a fast-path optimization; the oracle stays the dumb, obviously
		// correct code the differential tests compare against), mutate the
		// competitor set, then re-evaluate the full bound over it.
		idx := -1
		for i := range comps {
			if comps[i].Core == srcCore {
				idx = i
				break
			}
		}
		if idx >= 0 {
			comps[idx].Demand += w
		} else {
			sl.comp[b] = append(comps, arbiter.Request{Core: srcCore, Demand: w})
		}
		return s.recomputeBank(sl, dstReq, b)
	}
	// Cached-IBUS fast path: the bound is a sum of per-entry terms and
	// terms[b] memoizes each entry's current term, so a growing entry costs
	// one single-competitor evaluation plus a subtraction — O(1) per update
	// instead of a rescan of the competitor set. This is the speed-up that
	// the additivity property of Section II.C enables. compIdx finds the
	// entry of src's core in O(1), replacing the former linear scan.
	idx := int(sl.compIdx[b][srcCore])
	if idx < 0 {
		req := arbiter.Request{Core: srcCore, Demand: w}
		sl.compIdx[b][srcCore] = int32(len(comps))
		sl.comp[b] = append(comps, req)
		term := arbiter.One(s.arb, dstReq, req, b, s.scratch)
		sl.terms[b] = append(sl.terms[b], term)
		s.res.PerBank[sl.task][b] += term
		return term
	}
	comps[idx].Demand += w
	term := arbiter.One(s.arb, dstReq, comps[idx], b, s.scratch)
	delta := term - sl.terms[b][idx]
	sl.terms[b][idx] = term
	s.res.PerBank[sl.task][b] += delta
	return delta
}

// recomputeBank re-evaluates the full arbiter bound for one bank (the
// general, non-additive path) and returns the growth.
//
//mia:hotpath
func (s *state) recomputeBank(sl *slot, dstReq arbiter.Request, b model.BankID) model.Cycles {
	bound := s.arb.Bound(dstReq, sl.comp[b], b)
	delta := bound - s.res.PerBank[sl.task][b]
	s.res.PerBank[sl.task][b] = bound
	return delta
}

// firstBlocked names a task that can never start, for deadlock diagnostics:
// the head of some core's order with unmet conditions, or NoTask.
func (s *state) firstBlocked() model.TaskID {
	for k := range s.slots {
		order := s.ord.Order(model.CoreID(k))
		if s.headIdx[k] < len(order) {
			return order[s.headIdx[k]]
		}
	}
	return model.NoTask
}
