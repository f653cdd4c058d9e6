package incremental

import (
	"context"
	"fmt"
	"testing"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// handTask is one task of a hand-built cutoff scenario: its core, WCET,
// minimal release date and per-bank demand row.
type handTask struct {
	core       model.CoreID
	wcet, minR model.Cycles
	demand     []model.Accesses
}

// handGraph builds a graph from explicit tasks, dependency edges (no
// words) and per-core orders. Demands are set row by row after Build, so a
// scenario can place accesses on any bank regardless of the bank policy.
func handGraph(t *testing.T, cores, banks int, tasks []handTask, edges [][2]model.TaskID, orders [][]model.TaskID) *model.Graph {
	t.Helper()
	b := model.NewBuilder(cores, banks)
	for _, ht := range tasks {
		b.AddTask(model.TaskSpec{WCET: ht.wcet, Core: ht.core, MinRelease: ht.minR})
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1], 0)
	}
	for k, order := range orders {
		b.SetOrder(model.CoreID(k), order)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, ht := range tasks {
		if ht.demand != nil {
			copy(g.DemandRow(model.TaskID(i)), ht.demand)
		}
	}
	return g
}

// swapAndCompare analyzes g as the committed baseline, applies the given
// swaps to both the scheduler and the graph, and asserts that Reschedule
// with one edit per swapped core (its smallest position) matches the cold
// analysis of the swapped graph. It returns the scheduler for further
// assertions on its cutoff counter.
func swapAndCompare(t *testing.T, label string, g *model.Graph, opts sched.Options, swaps ...[2]int) *lockstep {
	t.Helper()
	l := newLockstep(t, g, opts)
	if _, err := l.Analyze(context.Background()); err != nil {
		t.Fatalf("%s: base: %v", label, err)
	}
	var edits []engine.Edit
	for _, sw := range swaps {
		l.swap(model.CoreID(sw[0]), sw[1])
		if len(edits) == 0 || edits[len(edits)-1].Core != model.CoreID(sw[0]) {
			edits = append(edits, engine.Edit{Core: model.CoreID(sw[0]), From: sw[1]})
		}
	}
	assertWarmMatchesCold(t, label, l, opts, edits...)
	return l
}

// TestShiftedCutoffFiresOnCorpus pins that the cutoff is armed on ordinary
// replays: over the warm-start corpus (every arbiter, both merging modes,
// fast and oracle paths), most swap replays and undo replays must end at a
// time-shifted committed state, and every one must still match the cold
// analysis. A cutoff that never fires would pass every bit-identity test.
func TestShiftedCutoffFiresOnCorpus(t *testing.T) {
	arbiters := []arbiter.Arbiter{
		arbiter.NewRoundRobin(1),
		arbiter.NewRoundRobin(3),
		arbiter.NewWeightedRR(1, func(c model.CoreID) int64 { return int64(c)%2 + 1 }),
	}
	replays, cutoffs := 0, 0
	for ci, p := range differentialCorpus() {
		arb := arbiters[ci%len(arbiters)]
		if ci%5 == 4 {
			arb = arbiter.NonAdditive{Inner: arb}
		}
		opts := sched.Options{Arbiter: arb, SeparateCompetitors: ci%2 == 1}
		g := gen.MustLayered(p)
		l := newLockstep(t, g, opts)
		if _, err := l.Analyze(context.Background()); err != nil {
			t.Fatalf("corpus[%d]: %v", ci, err)
		}
		for si, site := range sampleSites(legalSwapSites(g), 5) {
			label := fmt.Sprintf("corpus[%d] swap[%d]", ci, si)
			edit := engine.Edit{Core: model.CoreID(site[0]), From: site[1]}
			l.swap(edit.Core, edit.From)
			assertWarmMatchesCold(t, label, l, opts, edit)
			l.swap(edit.Core, edit.From)
			assertWarmMatchesCold(t, label+" undo", l, opts, edit)
			replays += 2
		}
		cutoffs += l.cutoffs
	}
	t.Logf("the cutoff ended %d of %d replays", cutoffs, replays)
	if 2*cutoffs <= replays {
		t.Fatalf("the cutoff ended %d of %d replays, want most", cutoffs, replays)
	}
}

// TestCutoffComparesCompetitorSets covers replays whose timing re-aligns
// while the competitor sets do not. Core 1 runs X1 and X2, equal WCETs with
// mirrored demands, then Z and W on bank 0; the long task A on core 0 (10
// accesses on each bank) opens exactly when the first of the pair closes,
// so it overlaps only the second. Swapping the pair mirrors A's
// interference across the banks with the same total, and once Z has opened,
// A, Z and every finish date are back where the committed run had them. W
// then saturates the round-robin min on bank 0 differently, so a cutoff at
// the re-aligned state would give A the committed finish. With one-bank
// demands the sets differ in length (A has no bank-1 competitor after the
// swap); with two-bank demands they have equal lengths and differ only in
// the demands. The cutoff must fire in neither.
func TestCutoffComparesCompetitorSets(t *testing.T) {
	const H, A, X1, X2, Z, W = 0, 1, 2, 3, 4, 5
	for _, tc := range []struct {
		name       string
		x1         []model.Accesses // X2 mirrors it
		baseFinish model.Cycles     // A's finish in the committed run
		swapFinish model.Cycles     // and after the swap
	}{
		// Committed, A's bank 0 entry grows 0 → 3 → 8; swapped, 4 → 7 → 12,
		// which the min caps at 10: 4 + 8 = 12 against 10 cycles.
		{"one-bank pair", []model.Accesses{4, 0}, 122, 120},
		// Committed, 1 → 4 → 9 on bank 0 plus 4 on bank 1; swapped,
		// 4 → 7 → 12 (capped at 10) plus 1: 13 against 11 cycles.
		{"two-bank pair", []model.Accesses{4, 1}, 123, 121},
	} {
		g := handGraph(t, 2, 2, []handTask{
			H:  {core: 0, wcet: 10},
			A:  {core: 0, wcet: 100, demand: []model.Accesses{10, 10}},
			X1: {core: 1, wcet: 10, demand: tc.x1},
			X2: {core: 1, wcet: 10, demand: []model.Accesses{tc.x1[1], tc.x1[0]}},
			Z:  {core: 1, wcet: 10, demand: []model.Accesses{3, 0}},
			W:  {core: 1, wcet: 10, demand: []model.Accesses{5, 0}},
		}, nil, [][]model.TaskID{{H, A}, {X1, X2, Z, W}})
		opts := sched.Options{Arbiter: arbiter.NewRoundRobin(1)}
		base, err := schedule(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		l := swapAndCompare(t, tc.name, g, opts, [2]int{1, 0})
		res, err := l.Reschedule(context.Background(), engine.Edit{Core: 1, From: 0})
		if err != nil {
			t.Fatal(err)
		}
		if base.Finish(A) != tc.baseFinish || res.Finish(A) != tc.swapFinish {
			t.Fatalf("%s: A finishes at %d committed and %d swapped, want %d and %d",
				tc.name, base.Finish(A), res.Finish(A), tc.baseFinish, tc.swapFinish)
		}
		if l.cutoffs != 0 {
			t.Fatalf("%s: the cutoff fired %d times, want 0: no committed state recurs", tc.name, l.cutoffs)
		}
	}
}

// TestCutoffBlockedByMinReleaseAhead covers the one state the time shift
// does not carry: a minimal release date. Swapping P (5) and Q (3) on core
// 0 delays S, which depends on P, by Δ = 3; from S's opening on, the
// replay is the committed run three cycles later, except that U's minimal
// release 14 is still ahead. Committed, U waits for it (T closes at 13);
// swapped, T closes at 16 and U opens at once, so U's release is 16, not
// the shifted 17. The cutoff may only fire once every m_i lies at or
// before both cursors.
func TestCutoffBlockedByMinReleaseAhead(t *testing.T) {
	const P, Q, S, T, U = 0, 1, 2, 3, 4
	g := handGraph(t, 2, 1, []handTask{
		P: {core: 0, wcet: 5},
		Q: {core: 0, wcet: 3},
		S: {core: 1, wcet: 4},
		T: {core: 1, wcet: 4},
		U: {core: 1, wcet: 4, minR: 14},
	}, [][2]model.TaskID{{P, S}}, [][]model.TaskID{{P, Q}, {S, T, U}})
	opts := sched.Options{}
	l := swapAndCompare(t, "m_i ahead", g, opts, [2]int{0, 0})
	res, err := l.Reschedule(context.Background(), engine.Edit{Core: 0, From: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Release[U] != 16 {
		t.Fatalf("U released at %d, want 16", res.Release[U])
	}
	// Past U's release the shift holds again: the replay ends when U is
	// the only alive task, with the committed run's last event ahead.
	if l.cutoffs != 2 {
		t.Fatalf("the cutoff fired %d times over two replays, want 2 (after m_i only)", l.cutoffs)
	}
}

// deadlineGraph is P (5) and Q (3) on core 0, S on core 1 after P, then T
// on core 1 and Y on core 2 after S. Swapping P and Q delays S, T and Y by
// three cycles: the committed run ends with events at 11 and 13, the
// swapped one at 14 and 16.
func deadlineGraph(t *testing.T) *model.Graph {
	const P, Q, S, T, Y = 0, 1, 2, 3, 4
	return handGraph(t, 3, 1, []handTask{
		P: {core: 0, wcet: 5},
		Q: {core: 0, wcet: 3},
		S: {core: 1, wcet: 4},
		T: {core: 1, wcet: 4},
		Y: {core: 2, wcet: 2},
	}, [][2]model.TaskID{{P, S}, {S, Y}}, [][]model.TaskID{{P, Q}, {S, T}, {Y}})
}

// TestCutoffOffUnderDeadline pins that a deadline replays to the end. With
// deadline 13 the committed run fits exactly, and the swapped run first
// crosses it at the event at 14: a cold run reports that time. A cutoff at
// the re-aligned state (S opening) would fill the shifted tail and report
// the makespan 16 instead. With a deadline that holds, the result is the
// cold one and the cutoff still stays off.
func TestCutoffOffUnderDeadline(t *testing.T) {
	for _, deadline := range []model.Cycles{13, 100} {
		label := fmt.Sprintf("deadline %d", deadline)
		l := swapAndCompare(t, label, deadlineGraph(t), sched.Options{Deadline: deadline}, [2]int{0, 0})
		_, werr := l.Reschedule(context.Background(), engine.Edit{Core: 0, From: 0})
		_, cerr := schedule(l.g, sched.Options{Deadline: deadline})
		if fmt.Sprint(werr) != fmt.Sprint(cerr) {
			t.Fatalf("%s: warm error %v, cold error %v", label, werr, cerr)
		}
		if deadline == 13 && (cerr == nil || cerr.Error() != sched.DeadlineExceeded(14).Error()) {
			t.Fatalf("%s: cold error %v, want the deadline crossed at 14", label, cerr)
		}
		if l.cutoffs != 0 {
			t.Fatalf("%s: the cutoff fired %d times under a deadline", label, l.cutoffs)
		}
	}
	// Without a deadline the same replay does end early.
	l := swapAndCompare(t, "no deadline", deadlineGraph(t), sched.Options{}, [2]int{0, 0})
	if l.cutoffs != 1 {
		t.Fatalf("no deadline: the cutoff fired %d times, want 1", l.cutoffs)
	}
}

// TestCutoffOffUnderTrace pins that a trace hook sees every event: a
// replay from the front of an order (the cold fallback) emits exactly the
// event stream of a cold analysis of the swapped orders, although without
// the trace hook the replay would end at S's opening.
func TestCutoffOffUnderTrace(t *testing.T) {
	var events []sched.Event
	opts := sched.Options{Trace: func(e sched.Event) { events = append(events, e) }}
	l := newLockstep(t, deadlineGraph(t), opts)
	ctx := context.Background()
	if _, err := l.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	l.swap(0, 0)
	events = nil
	if _, err := l.AnalyzeCold(ctx); err != nil {
		t.Fatal(err)
	}
	cold := events
	events = nil
	if _, err := l.Reschedule(ctx, engine.Edit{Core: 0, From: 0}); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(cold) {
		t.Fatalf("replay traced %d events, cold run %d", len(events), len(cold))
	}
	for i := range cold {
		if events[i] != cold[i] {
			t.Fatalf("event %d: replay %+v, cold %+v", i, events[i], cold[i])
		}
	}
	if l.cutoffs != 0 {
		t.Fatalf("the cutoff fired %d times under a trace hook", l.cutoffs)
	}
}

// TestCutoffWaitsForLastEditedPosition swaps two pairs far apart on one
// core while a long task on core 1 accumulates interference from all of
// them. The edit names only the first position, and the first pair
// re-aligns the schedule exactly (Δ = 0) long before the second pair opens:
// a cutoff armed from Edit.From would fill the second pair from the
// committed orders. The cutoff must wait until the head has passed the
// last position where the overlay differs, and then fire.
func TestCutoffWaitsForLastEditedPosition(t *testing.T) {
	wcets := []model.Cycles{5, 3, 4, 6, 2, 7, 3, 5}
	demands := []model.Accesses{2, 3, 1, 4, 2, 5, 3, 1}
	var tasks []handTask
	var order0 []model.TaskID
	for i := range wcets {
		tasks = append(tasks, handTask{core: 0, wcet: wcets[i], demand: []model.Accesses{demands[i]}})
		order0 = append(order0, model.TaskID(i))
	}
	long := model.TaskID(len(tasks))
	tasks = append(tasks, handTask{core: 1, wcet: 200, demand: []model.Accesses{10}})
	g := handGraph(t, 2, 1, tasks, nil, [][]model.TaskID{order0, {long}})
	l := swapAndCompare(t, "two swaps", g, sched.Options{Arbiter: arbiter.NewRoundRobin(1)}, [2]int{0, 1}, [2]int{0, 5})
	if l.cutoffs != 1 {
		t.Fatalf("the cutoff fired %d times, want 1 once the second pair has opened", l.cutoffs)
	}
}

// TestShiftedComparesHeadIndices pins the head-index part of the state
// match. A replay hardly reaches the same alive tasks with different heads:
// with the remaining orders equal, that needs Δ < 0 and an idle core whose
// next task has its minimal release exactly at the live cursor. So the
// state is built by hand: every committed checkpoint restored matches
// itself, and stops matching once an idle core's head moves.
func TestShiftedComparesHeadIndices(t *testing.T) {
	sc := compiledScheduler(t, deadlineGraph(t), sched.Options{})
	if _, err := sc.Analyze(context.Background()); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range sc.snaps {
		sn := &sc.snaps[i]
		sc.restore(sn)
		if !sc.shifted(sn) {
			t.Fatalf("checkpoint %d does not match its own restored state", i)
		}
		for k := range sc.st.slots {
			if sc.st.slots[k].task != model.NoTask || sc.st.headIdx[k] == 0 {
				continue
			}
			sc.st.headIdx[k]--
			if sc.shifted(sn) {
				t.Fatalf("checkpoint %d matches with core %d's head moved", i, k)
			}
			sc.st.headIdx[k]++
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no checkpoint has an idle core past its first task")
	}
}
