package incremental

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// compiledScheduler compiles g under opts into a fresh Scheduler.
func compiledScheduler(t testing.TB, g *model.Graph, opts sched.Options) *Scheduler {
	t.Helper()
	img, err := engine.Compile(g, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return newScheduler(img)
}

// lockstep pairs a Scheduler with the graph its image was compiled from and
// applies every adjacent swap to both: the scheduler analyzes its order
// overlay, and the graph stays the cold schedule(g) reference for the same
// orders.
type lockstep struct {
	*Scheduler
	g *model.Graph
}

func newLockstep(t testing.TB, g *model.Graph, opts sched.Options) *lockstep {
	t.Helper()
	return &lockstep{Scheduler: compiledScheduler(t, g, opts), g: g}
}

func (l *lockstep) swap(k model.CoreID, pos int) {
	l.Orders().Swap(k, pos)
	l.g.SwapOrder(k, pos)
}

// legalSwapSites enumerates (core, pos) adjacent swaps that keep the graph
// structurally valid: no direct dependency between the swapped pair and
// Validate accepting the swapped order. Cross-core deadlocks may survive
// this filter — exactly as in a search — so scheduling a swapped
// candidate may still fail, and the differential tests assert that warm and
// cold agree on the failure too.
func legalSwapSites(g *model.Graph) [][2]int {
	dep := make(map[[2]model.TaskID]bool)
	for _, e := range g.Edges() {
		dep[[2]model.TaskID{e.From, e.To}] = true
	}
	var sites [][2]int
	for k := 0; k < g.Cores; k++ {
		order := g.Order(model.CoreID(k))
		for pos := 0; pos+1 < len(order); pos++ {
			if dep[[2]model.TaskID{order[pos], order[pos+1]}] {
				continue
			}
			g.SwapOrder(model.CoreID(k), pos)
			ok := g.Validate() == nil
			g.SwapOrder(model.CoreID(k), pos)
			if ok {
				sites = append(sites, [2]int{k, pos})
			}
		}
	}
	return sites
}

// sampleSites thins a site list to at most max entries spread evenly across
// it, so the corpus sweep touches front, middle and tail positions (tail
// swaps exercise deep checkpoints, front swaps the cold-fallback path)
// without exploding the runtime.
func sampleSites(sites [][2]int, max int) [][2]int {
	if len(sites) <= max {
		return sites
	}
	out := make([][2]int, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, sites[i*(len(sites)-1)/(max-1)])
	}
	return out
}

// assertWarmMatchesCold compares one warm-started re-analysis against a cold
// Schedule of the same mutated graph: identical error verdicts, and
// bit-identical schedules (including per-bank splits and event counts) when
// schedulable.
func assertWarmMatchesCold(t *testing.T, label string, l *lockstep, opts sched.Options, edits ...engine.Edit) {
	t.Helper()
	warm, werr := l.Reschedule(context.Background(), edits...)
	cold, cerr := schedule(l.g, opts)
	if (werr == nil) != (cerr == nil) {
		t.Fatalf("%s: warm err %v, cold err %v", label, werr, cerr)
	}
	if werr != nil {
		if !errors.Is(werr, sched.ErrUnschedulable) || !errors.Is(cerr, sched.ErrUnschedulable) {
			t.Fatalf("%s: non-unschedulable failure: warm %v, cold %v", label, werr, cerr)
		}
		return
	}
	identical(t, label, warm, cold)
}

// TestWarmStartMatchesColdSchedule is the warm-start half of the
// differential contract: across the full corpus (≥200 instances), every
// additive arbiter, both competitor-merging modes and both fast/oracle
// paths, replaying an adjacent-swap neighbor from a restored checkpoint must
// reproduce the cold analysis of the mutated graph bit for bit — Release,
// Response, Interference, PerBank and the event count — and undoing the swap
// must reproduce the committed baseline bit for bit as well.
func TestWarmStartMatchesColdSchedule(t *testing.T) {
	arbiters := []arbiter.Arbiter{
		arbiter.NewRoundRobin(1),
		arbiter.NewRoundRobin(3),
		arbiter.NewWeightedRR(1, func(c model.CoreID) int64 { return int64(c)%2 + 1 }),
	}
	corpus := differentialCorpus()
	if len(corpus) < 200 {
		t.Fatalf("differential corpus has %d instances, want ≥ 200", len(corpus))
	}
	ctx := context.Background()
	instances := 0
	for ci, p := range corpus {
		g, err := gen.Layered(p)
		if err != nil {
			t.Fatalf("corpus[%d]: %v", ci, err)
		}
		arb := arbiters[ci%len(arbiters)]
		if ci%5 == 4 {
			// Exercise the uncached oracle path under warm start too: the
			// checkpoint/replay machinery must be path-agnostic.
			arb = arbiter.NonAdditive{Inner: arb}
		}
		opts := sched.Options{Arbiter: arb, SeparateCompetitors: ci%2 == 1}
		label := fmt.Sprintf("corpus[%d] %d layers × %d, %d×%d shared=%v arb=%s separate=%v",
			ci, p.Layers, p.LayerSize, p.Cores, p.Banks, p.SharedBank,
			arb.Name(), opts.SeparateCompetitors)

		l := newLockstep(t, g, opts)
		baseWarm, err := l.Analyze(ctx)
		if err != nil {
			t.Fatalf("%s: base schedule: %v", label, err)
		}
		baseCold, err := schedule(g, opts)
		if err != nil {
			t.Fatalf("%s: base cold: %v", label, err)
		}
		identical(t, label+" base", baseWarm, baseCold)

		for si, site := range sampleSites(legalSwapSites(g), 5) {
			k, pos := site[0], site[1]
			swapLabel := fmt.Sprintf("%s swap[%d]=(core %d, pos %d)", label, si, k, pos)
			l.swap(model.CoreID(k), pos)
			assertWarmMatchesCold(t, swapLabel, l, opts, engine.Edit{Core: model.CoreID(k), From: pos})
			l.swap(model.CoreID(k), pos) // undo
			// The baseline checkpoints must have survived the excursion:
			// rescheduling the undone orders reproduces the base run.
			if si == 0 {
				back, err := l.Reschedule(ctx, engine.Edit{Core: model.CoreID(k), From: pos})
				if err != nil {
					t.Fatalf("%s: reschedule after undo: %v", swapLabel, err)
				}
				identical(t, swapLabel+" undo", back, baseCold)
			}
		}
		instances++
	}
	if instances < 200 {
		t.Fatalf("only %d instances compared", instances)
	}
}

// TestWarmStartMultiEdit pins the multi-site contract: when the orders
// diverge from the baseline at several cores at once (an accepted move plus
// a candidate), Reschedule must restore a checkpoint preceding every site
// and still match the cold analysis.
func TestWarmStartMultiEdit(t *testing.T) {
	p := gen.NewParams(8, 6)
	p.Seed = 42
	p.Cores, p.Banks = 4, 4
	g := gen.MustLayered(p)
	opts := sched.Options{Arbiter: arbiter.NewRoundRobin(1)}
	l := newLockstep(t, g, opts)
	if _, err := l.Analyze(context.Background()); err != nil {
		t.Fatal(err)
	}
	sites := legalSwapSites(g)
	if len(sites) < 2 {
		t.Skip("graph has fewer than two legal swap sites")
	}
	applied := 0
	var edits []engine.Edit
	for _, site := range sites {
		if applied == 2 {
			break
		}
		if len(edits) > 0 && model.CoreID(site[0]) == edits[0].Core {
			continue // want two distinct cores
		}
		l.swap(model.CoreID(site[0]), site[1])
		if g.Validate() != nil {
			l.swap(model.CoreID(site[0]), site[1])
			continue
		}
		edits = append(edits, engine.Edit{Core: model.CoreID(site[0]), From: site[1]})
		applied++
	}
	if applied < 2 {
		t.Skip("could not combine two swaps on distinct cores")
	}
	assertWarmMatchesCold(t, "multi-edit", l, opts, edits...)
}

// TestWarmStartFrontSwapFallsBackCold covers the no-safe-checkpoint path: a
// swap at position 0 diverges before the very first event, so Reschedule
// must replay cold — and still match, without touching the baseline.
func TestWarmStartFrontSwapFallsBackCold(t *testing.T) {
	p := gen.NewParams(6, 6)
	p.Seed = 7
	p.Cores, p.Banks = 4, 2
	g := gen.MustLayered(p)
	opts := sched.Options{}
	l := newLockstep(t, g, opts)
	base, err := l.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	baseCopy, err := schedule(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	identical(t, "base", base, baseCopy)
	for _, site := range legalSwapSites(g) {
		if site[1] != 0 {
			continue
		}
		l.swap(model.CoreID(site[0]), site[1])
		assertWarmMatchesCold(t, "front swap", l, opts, engine.Edit{Core: model.CoreID(site[0]), From: 0})
		l.swap(model.CoreID(site[0]), site[1])
		back, err := l.Reschedule(context.Background(), engine.Edit{Core: model.CoreID(site[0]), From: 0})
		if err != nil {
			t.Fatal(err)
		}
		identical(t, "front swap undo", back, baseCopy)
		return
	}
	t.Skip("no legal front swap in this instance")
}

// TestRescheduleWithoutBaseBehavesAsSchedule pins the degenerate entry
// point: a Reschedule before any Analyze commits a cold run.
func TestRescheduleWithoutBaseBehavesAsSchedule(t *testing.T) {
	p := gen.NewParams(5, 5)
	p.Cores, p.Banks = 4, 2
	g := gen.MustLayered(p)
	opts := sched.Options{}
	l := newLockstep(t, g, opts)
	warm, err := l.Reschedule(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := schedule(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	identical(t, "no-base reschedule", warm, cold)
}
