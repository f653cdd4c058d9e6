package incremental

import (
	"context"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// maxCheckpoints bounds the Scheduler's checkpoint store. When a run records
// more, every other checkpoint is dropped and the recording stride doubles,
// so memory stays O(maxCheckpoints · frontier size) while the replay distance
// from the nearest checkpoint stays O(events / maxCheckpoints).
const maxCheckpoints = 64

// Scheduler is this backend's engine.Warm: a reusable analyzer bound to one
// compiled image and its own order overlay that snapshots its cursor state
// at event boundaries during full runs, and can then re-analyze a permuted
// variant of the execution orders by restoring the latest snapshot
// unaffected by the permutation and replaying only the suffix.
//
// The intended client is design-space exploration and what-if serving,
// where neighboring candidates differ from the incumbent by a single
// adjacent swap in one core's execution order: a cold analysis costs O(n²)
// while the replay of the suffix behind the swapped position costs
// O(suffix²), which is the same incremental-reuse idea that lets the
// paper's algorithm beat the global fixed-point. Soundness is inherited
// from the monotonicity hypothesis (Section II.C): the schedule prefix
// produced before the first event that could observe the mutated order
// positions is *exact*, not approximate, so a restored prefix plus a
// replayed suffix is bit-identical to a cold run (enforced by the
// differential tests in warmstart_test.go).
//
// A replay usually does not have to run to the end either. Once every
// mutated position has opened, the replay often reaches the committed
// run's state at some checkpoint shifted by a constant Δ; from there the
// rest of the run is the committed rest plus Δ, because an interference
// bound depends on which windows overlap, not on absolute time. The
// Scheduler keeps the committed run's final result, detects that state at
// the top of the event loop, and fills the remaining tasks from the
// committed result (the shifted cutoff, DESIGN §3.4).
//
// Checkpoints are frontier checkpoints: each keeps the cursor, counters,
// head indices and dependency counts, plus the alive tasks' finish,
// interference, per-bank row and competitor sets — one exact-sized buffer
// per checkpoint. Closed tasks are final in the committed result, so a
// restore takes them from there. Checkpoint memory is therefore
// O(64 · (n + cores · banks · competitors)), not O(64 · n · banks).
//
// All buffers — working state, result, committed copy and checkpoints — are
// owned by the Scheduler and reused across calls, so the steady-state event
// loop runs allocation-free (pinned by an AllocsPerRun guard test).
// Consequently the returned *sched.Result is overwritten by the next call;
// callers that need to keep one must copy it. A Scheduler is not safe for
// concurrent use; give each goroutine its own — several Schedulers may share
// one immutable engine.Image.
//
// Between calls the caller may mutate ONLY the execution orders, through
// the Orders overlay (Swap, SetOrder). Tasks, edges, demands and the
// platform are compiled into the image; changing them means compiling a
// new image and building a new Scheduler over it.
type Scheduler struct {
	img *engine.Image
	ord *engine.Orders
	st  *state

	snaps  []snapshot // committed checkpoints, in cursor order
	stride int        // record every stride-th event
	tick   int        // event counter of the recording run

	mode hookMode // what the event-boundary hook does in the current run
	base bool     // snaps, baseRes and baseOrders describe the last Analyze

	// The committed run: the last successful Analyze's result (whose
	// Iterations is its event count) and its orders, flat and indexed
	// like img.OrderIDs.
	baseRes    *sched.Result
	baseOrders []model.TaskID

	// Shifted-cutoff state of the current replay.
	armAt   []int // per core: the head index past the last position that differs from baseOrders
	armed   bool  // every head has reached its armAt
	cand    int   // first checkpoint whose opened count is not below the live one
	cutoffs int   // replays the cutoff has ended, for tests
}

// hookMode selects what the Scheduler's event-boundary hook does.
type hookMode uint8

const (
	hookNone   hookMode = iota // AnalyzeCold, or a replay the cutoff may not end
	hookRecord                 // Analyze: capture checkpoints
	hookCutoff                 // Reschedule: end at a time-shifted committed state
)

// newScheduler builds a warm scheduler over img owning a private order
// overlay initialized to the image's baseline orders.
func newScheduler(img *engine.Image) *Scheduler {
	ord := img.NewOrders()
	sc := &Scheduler{
		img:        img,
		ord:        ord,
		st:         newState(img, ord),
		stride:     1,
		baseRes:    sched.NewResult(Algorithm, img.NumTasks, img.Banks),
		baseOrders: make([]model.TaskID, img.NumTasks),
		armAt:      make([]int, img.Cores),
	}
	sc.st.ckpt = sc.atEvent
	return sc
}

// Orders exposes the scheduler's mutable order overlay, the single source
// of order truth for every run.
func (sc *Scheduler) Orders() *engine.Orders { return sc.ord }

// Analyze analyzes the current orders cold from t=0, rebuilding the
// checkpoint store as it goes, and commits them as the warm-start baseline
// for subsequent Reschedule calls. The returned Result is owned by the
// Scheduler and valid only until the next call.
//
// Every call is canceled through its ctx. A canceled call returns
// sched.ErrCanceled and never corrupts the warm state: a canceled Analyze
// leaves the Scheduler without a baseline (the next Reschedule runs cold),
// and a canceled Reschedule leaves the committed checkpoints untouched.
func (sc *Scheduler) Analyze(ctx context.Context) (*sched.Result, error) {
	sc.st.cancel = ctx.Done()
	sc.st.reset()
	sc.snaps = sc.snaps[:0]
	sc.tick = 0
	// Size the stride from the previous run so a steady-state run records
	// ~maxCheckpoints evenly spaced checkpoints instead of recording densely
	// and compacting repeatedly. Before any run, expect about one event per
	// task (a close is usually an event of its own), with an eighth of
	// headroom so a run with a few more events does not compact.
	events := sc.baseRes.Iterations
	if events == 0 {
		events = sc.img.NumTasks + sc.img.NumTasks/8
	}
	if stride := (events + maxCheckpoints - 1) / maxCheckpoints; stride > 1 {
		sc.stride = stride
	}
	sc.mode = hookRecord
	res, err := sc.st.run()
	sc.mode = hookNone
	sc.base = err == nil
	if err == nil {
		sc.commit(res)
	}
	return res, err
}

// commit keeps the successful run's result and orders as the committed run
// that restores take closed tasks from and the shifted cutoff fills from.
func (sc *Scheduler) commit(res *sched.Result) {
	b := sc.baseRes
	copy(b.Release, res.Release)
	copy(b.Interference, res.Interference)
	copy(b.Response, res.Response)
	copy(b.FlatPerBank(), res.FlatPerBank())
	b.Makespan, b.Iterations = res.Makespan, res.Iterations
	for k := 0; k < sc.img.Cores; k++ {
		copy(sc.baseOrder(model.CoreID(k)), sc.ord.Order(model.CoreID(k)))
	}
}

// baseOrder returns core k's committed order.
//
//mia:hotpath
func (sc *Scheduler) baseOrder(k model.CoreID) []model.TaskID {
	return sc.baseOrders[sc.img.OrderStart[k]:sc.img.OrderStart[k+1]]
}

// AnalyzeCold analyzes the current orders from t=0 without recording
// checkpoints and without committing a baseline — the oracle path for
// differential comparisons against Reschedule. The committed warm baseline,
// if any, survives.
func (sc *Scheduler) AnalyzeCold(ctx context.Context) (*sched.Result, error) {
	sc.st.cancel = ctx.Done()
	sc.st.reset()
	return sc.st.run()
}

// Reschedule re-analyzes after the execution orders were mutated at the
// given divergence sites, relative to the orders committed by the last
// successful Analyze. It restores the latest checkpoint that provably
// precedes every site's first possible influence on the schedule and
// replays the remaining events; when no checkpoint qualifies (a mutation at
// the very front of an order), it falls back to a cold replay. Without a
// trace hook or a deadline, the replay stops at the first event whose state
// matches a committed checkpoint shifted in time, and the remaining tasks
// are filled from the committed result. Either way the result is
// bit-identical to what Analyze would compute on the mutated orders — only
// cheaper.
//
// The checkpoint store is never modified: after the caller undoes its
// mutation (restoring the committed orders), further Reschedule calls
// against the same baseline remain valid, which is exactly the
// apply-evaluate-undo pattern of neighborhood search. An unschedulable
// verdict for the mutated orders likewise leaves the baseline intact. If no
// valid baseline exists (never analyzed, or the last Analyze failed),
// Reschedule behaves as Analyze, committing the current orders.
//
//mia:hotpath warm replay: 0 allocs/op pinned by alloc_test.go
func (sc *Scheduler) Reschedule(ctx context.Context, edits ...engine.Edit) (*sched.Result, error) {
	if !sc.base {
		return sc.Analyze(ctx)
	}
	sc.st.cancel = ctx.Done()
	i := len(sc.snaps) - 1
	for i >= 0 && !sc.snapSafe(&sc.snaps[i], edits) {
		i--
	}
	if i >= 0 {
		sc.restore(&sc.snaps[i])
	} else {
		sc.st.reset()
	}
	// A trace must see every event, and a deadline check reads absolute
	// times the committed run does not share, so both replay to the end.
	if sc.st.trace == nil && sc.st.deadline == model.Infinity {
		sc.arm(edits)
	}
	res, err := sc.st.run()
	sc.mode = hookNone
	return res, err
}

// Warm reports whether the Scheduler holds a valid warm-start baseline: a
// successful Analyze has committed checkpoints and the caller has not
// invalidated them. Serving layers use it to distinguish a cheap Reschedule
// replay from the cold run it would silently fall back to, and to report
// warm-pool occupancy in metrics.
func (sc *Scheduler) Warm() bool { return sc.base }

// atEvent is the state's event-boundary hook: Analyze records checkpoints
// through it, and a Reschedule replay ends through it once the live state
// is a time-shifted committed one.
//
//mia:hotpath
func (sc *Scheduler) atEvent() bool {
	switch sc.mode {
	case hookRecord:
		sc.checkpoint()
	case hookCutoff:
		return sc.cutoff()
	}
	return false
}

// checkpoint captures every stride-th event of a recording run into the
// store, compacting (drop every other checkpoint, double the stride) when
// the store outgrows its bound.
//
//mia:hotpath
func (sc *Scheduler) checkpoint() {
	if sc.tick%sc.stride == 0 {
		sc.push().capture(sc.st)
		if len(sc.snaps) > maxCheckpoints {
			sc.compact()
		}
	}
	sc.tick++
}

// push extends the checkpoint list by one entry, reviving the buffers of a
// previously truncated entry when the backing array still holds one.
func (sc *Scheduler) push() *snapshot {
	if len(sc.snaps) < cap(sc.snaps) {
		sc.snaps = sc.snaps[:len(sc.snaps)+1]
	} else {
		sc.snaps = append(sc.snaps, snapshot{})
	}
	return &sc.snaps[len(sc.snaps)-1]
}

// compact halves the checkpoint density in place: entry i takes the value of
// entry 2i by swapping (not copying), so the displaced entries — and their
// buffers — remain in the backing array beyond the new length for push to
// revive.
func (sc *Scheduler) compact() {
	n := len(sc.snaps)
	for i := 1; 2*i < n; i++ {
		sc.snaps[i], sc.snaps[2*i] = sc.snaps[2*i], sc.snaps[i]
	}
	sc.snaps = sc.snaps[:(n+1)/2]
	sc.stride *= 2
}

// snapSafe reports whether a checkpoint provably precedes any influence of
// the given divergence sites on the schedule. Order position From of core
// Core is first consulted when the core sits idle with its head index at
// From, so the checkpoint is safe for that edit while the head index is
// still below From, or equals From with the task at From-1 still alive (the
// head has then never been consulted while the core was idle: consultation
// only happens in openAt on idle cores, and the core has been busy since the
// head index reached From). Head indices only grow and an idle core at From
// stays idle until From opens, so safety is a prefix property over the run —
// the latest safe checkpoint is the best restart point.
//
//mia:hotpath
func (sc *Scheduler) snapSafe(sn *snapshot, edits []engine.Edit) bool {
	heads, tasks := sn.buf[:sc.img.Cores], sn.buf[sc.img.Cores:2*sc.img.Cores]
	for _, e := range edits {
		h := int(heads[e.Core])
		if h > e.From || (h == e.From && model.TaskID(tasks[e.Core]) == model.NoTask) {
			return false
		}
	}
	return true
}

// snapshot is a frontier checkpoint: the state of a recording run
// immediately before the event at cursor t is processed, minus everything
// the committed result already holds. Restoring it and re-entering the event
// loop replays the event at t and everything after with no special casing.
//
// buf is one exact-sized buffer of int64 words, reused across captures:
//
//	headIdx[cores] | slot task[cores] (NoTask when idle) | depsLeft[n] |
//	per alive core, ascending:
//	    finish | interference | per-bank row[banks] |
//	    per bank: len(comp) | (core, demand)·len(comp) | terms·len(comp) on the fast path
//
// The competitor index is not captured: it is derivable from comp and
// rebuilt on restore.
type snapshot struct {
	t      model.Cycles
	events int
	closed int
	relPtr int
	opened int // Σ headIdx, the key the cutoff looks checkpoints up by

	buf []int64
}

// capture copies the frontier of s into the snapshot, reusing its buffer.
//
//mia:hotpath buffers are revived across captures; first capture warms them
func (sn *snapshot) capture(s *state) {
	sn.t, sn.events, sn.closed, sn.relPtr = s.t, s.events, s.closed, s.relPtr
	size := 2*len(s.slots) + len(s.depsLeft)
	for k := range s.slots {
		sl := &s.slots[k]
		if sl.task == model.NoTask {
			continue
		}
		size += 2 + len(sl.comp)
		for b := range sl.comp {
			size += 1 + 2*len(sl.comp[b]) + len(sl.terms[b])
		}
	}
	if cap(sn.buf) < size {
		//mialint:ignore hotpathalloc -- one-time buffer birth on a snapshot entry's first capture of a larger frontier; cap-guarded, steady-state captures of the same events reuse
		sn.buf = make([]int64, size)
	}
	w := sn.buf[:size]
	sn.buf = w
	sn.opened = 0
	for k, h := range s.headIdx {
		w[k] = int64(h)
		w[len(s.slots)+k] = int64(s.slots[k].task)
		sn.opened += h
	}
	p := 2 * len(s.slots)
	for _, d := range s.depsLeft {
		w[p] = int64(d)
		p++
	}
	for k := range s.slots {
		sl := &s.slots[k]
		if sl.task == model.NoTask {
			continue
		}
		w[p], w[p+1] = int64(sl.finish), int64(s.res.Interference[sl.task])
		p += 2
		for _, v := range s.res.PerBank[sl.task] {
			w[p] = int64(v)
			p++
		}
		for b, comp := range sl.comp {
			w[p] = int64(len(comp))
			p++
			for _, r := range comp {
				w[p], w[p+1] = int64(r.Core), int64(r.Demand)
				p += 2
			}
			for _, v := range sl.terms[b] {
				w[p] = int64(v)
				p++
			}
		}
	}
}

// restore rebuilds the working state the recording run had at checkpoint sn:
// closed tasks from the committed result, future tasks zeroed, alive tasks
// and their competitor sets from the frontier, and the per-core competitor
// index from the restored sets.
//
//mia:hotpath
func (sc *Scheduler) restore(sn *snapshot) {
	s, w, cores := sc.st, sn.buf, len(sc.st.slots)
	s.t, s.events, s.closed, s.relPtr = sn.t, sn.events, sn.closed, sn.relPtr
	for k := range s.headIdx {
		s.headIdx[k] = int(w[k])
	}
	p := 2 * cores
	for i := range s.depsLeft {
		s.depsLeft[i] = int(w[p])
		p++
	}
	res, base := s.res, sc.baseRes
	copy(res.Release, base.Release)
	copy(res.Interference, base.Interference)
	copy(res.Response, base.Response)
	copy(res.FlatPerBank(), base.FlatPerBank())
	for k, h := range s.headIdx {
		for _, id := range sc.baseOrder(model.CoreID(k))[h:] {
			res.Release[id], res.Interference[id], res.Response[id] = 0, 0, 0
			clear(res.PerBank[id])
		}
	}
	for k := range s.slots {
		sl := &s.slots[k]
		for b := range sl.comp {
			for _, r := range sl.comp[b] {
				sl.compIdx[b][r.Core] = -1
			}
			sl.comp[b] = sl.comp[b][:0]
			sl.terms[b] = sl.terms[b][:0]
		}
		sl.task = model.TaskID(w[cores+k])
		if sl.task == model.NoTask {
			continue
		}
		id := sl.task
		sl.finish, res.Interference[id], res.Response[id] = model.Cycles(w[p]), model.Cycles(w[p+1]), 0
		p += 2
		for b := range res.PerBank[id] {
			res.PerBank[id][b] = model.Cycles(w[p])
			p++
		}
		for b := range sl.comp {
			n := int(w[p])
			p++
			for i := 0; i < n; i++ {
				sl.comp[b] = append(sl.comp[b], arbiter.Request{Core: model.CoreID(w[p]), Demand: model.Accesses(w[p+1])})
				p += 2
			}
			if !s.fast {
				continue
			}
			for i := 0; i < n; i++ {
				sl.terms[b] = append(sl.terms[b], model.Cycles(w[p]))
				p++
			}
			if !s.separate {
				for i, r := range sl.comp[b] {
					sl.compIdx[b][r.Core] = int32(i)
				}
			}
		}
	}
}

// arm enables the shifted cutoff for the replay about to run. A core's
// remaining order must equal its committed one before the replay can match
// a committed state, so for every edited core it finds the last position
// where the overlay differs from the committed order (Edit.From is only the
// first) and records the head index past it.
//
//mia:hotpath
func (sc *Scheduler) arm(edits []engine.Edit) {
	clear(sc.armAt)
	for _, e := range edits {
		cur, com := sc.ord.Order(e.Core), sc.baseOrder(e.Core)
		for i := len(cur) - 1; i >= e.From && i >= sc.armAt[e.Core]; i-- {
			if cur[i] != com[i] {
				sc.armAt[e.Core] = i + 1
				break
			}
		}
	}
	sc.armed, sc.cand, sc.mode = false, 0, hookCutoff
}

// cutoff looks the live state up among the committed checkpoints with the
// same head indices and, on a time-shifted match, fills the rest of the
// result from the committed run and ends the replay. Lookups start once
// every core's head has passed its last mutated position; from then on the
// live opened count only grows, so the candidate cursor only moves forward.
//
//mia:hotpath
func (sc *Scheduler) cutoff() bool {
	s := sc.st
	opened := 0
	for k, h := range s.headIdx {
		if !sc.armed && h < sc.armAt[k] {
			return false
		}
		opened += h
	}
	sc.armed = true
	for sc.cand < len(sc.snaps) && sc.snaps[sc.cand].opened < opened {
		sc.cand++
	}
	for j := sc.cand; j < len(sc.snaps) && sc.snaps[j].opened == opened; j++ {
		if sn := &sc.snaps[j]; sc.shifted(sn) {
			sc.fill(sn)
			sc.cutoffs++
			return true
		}
	}
	return false
}

// shifted reports whether the live state is checkpoint sn's state shifted
// by Δ = s.t − sn.t, so that the rest of the live run is the rest of the
// committed run plus Δ. That needs equal head indices, the same task alive
// on every core, with the same cursor-relative finish and the same
// competitor sets (core and demand, in order). Everything else follows:
// remaining orders are equal once the cutoff is armed, so equal heads and
// alive tasks mean equal closed sets and dependency counts; terms, per-bank
// rows and interference are functions of the task and its competitor sets;
// and release = finish − WCET − interference. Minimal release dates are not
// shift-invariant: with Δ ≠ 0 every m_i must lie at or before both cursors.
//
//mia:hotpath
func (sc *Scheduler) shifted(sn *snapshot) bool {
	s, w, cores := sc.st, sn.buf, len(sc.st.slots)
	for k, h := range s.headIdx {
		if int64(h) != w[k] || int64(s.slots[k].task) != w[cores+k] {
			return false
		}
	}
	delta := s.t - sn.t
	if n := len(s.minRels); delta != 0 && n > 0 && s.minRels[n-1] > min(s.t, sn.t) {
		return false
	}
	p := 2*cores + len(s.depsLeft)
	for k := range s.slots {
		sl := &s.slots[k]
		if sl.task == model.NoTask {
			continue
		}
		if sl.finish != model.Cycles(w[p])+delta {
			return false
		}
		p += 2 + len(sl.comp)
		for b, comp := range sl.comp {
			if int64(len(comp)) != w[p] {
				return false
			}
			p++
			for _, r := range comp {
				if int64(r.Core) != w[p] || int64(r.Demand) != w[p+1] {
					return false
				}
				p += 2
			}
			p += len(sl.terms[b])
		}
	}
	return true
}

// fill completes the result after a match with checkpoint sn: every task the
// live run has not closed takes its committed values, its release shifted
// by Δ, and the event count becomes the live events plus the committed
// run's events from sn on.
//
//mia:hotpath
func (sc *Scheduler) fill(sn *snapshot) {
	s, res, base := sc.st, sc.st.res, sc.baseRes
	delta := s.t - sn.t
	for k := range s.slots {
		from := s.headIdx[k]
		if s.slots[k].task != model.NoTask {
			from-- // the alive task is the core's last opened one
		}
		for _, id := range s.ord.Order(model.CoreID(k))[from:] {
			res.Release[id] = base.Release[id] + delta
			res.Interference[id] = base.Interference[id]
			res.Response[id] = base.Response[id]
			copy(res.PerBank[id], base.PerBank[id])
		}
	}
	s.events += base.Iterations - sn.events
}
