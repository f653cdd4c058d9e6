package engine_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/fixpoint"    // registers the "fixpoint" engine backend
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

// coldRun compiles g under opts into a fresh image and runs one cold
// analysis with the named backend: the reference the warm and replay paths
// of these tests are compared against.
func coldRun(backend string, g *model.Graph, opts sched.Options) (*sched.Result, error) {
	img, err := engine.Compile(g, opts)
	if err != nil {
		return nil, err
	}
	return engine.MustNew(backend).Analyze(context.Background(), img)
}

// diffCorpus mirrors the incremental scheduler's differential corpus: both
// benchmark families across platform geometries, bank layouts, and seeds,
// ≥ 200 instances. Warm runs, replays and cold runs of every backend must
// agree bit for bit on every instance, and TestCorpusDigestGolden pins the
// results themselves.
func diffCorpus() []gen.Params {
	shapes := []struct {
		family       string
		layers, size int
	}{
		{"LS", 8, 4}, {"LS", 12, 4}, {"LS", 6, 8},
		{"NL", 4, 8}, {"NL", 4, 12}, {"NL", 6, 10},
	}
	platforms := []struct {
		cores, banks int
		shared       bool
	}{
		{4, 4, false},
		{8, 8, false},
		{4, 1, true},
	}
	var corpus []gen.Params
	for _, sh := range shapes {
		for _, pl := range platforms {
			for seed := int64(1); seed <= 12; seed++ {
				p := gen.NewParams(sh.layers, sh.size)
				p.Seed = seed
				p.Cores, p.Banks, p.SharedBank = pl.cores, pl.banks, pl.shared
				corpus = append(corpus, p)
			}
		}
	}
	return corpus
}

// corpusOpts rotates arbiters and competitor-merging modes across the
// corpus so every combination appears many times without multiplying the
// runtime.
func corpusOpts(ci int) sched.Options {
	arbiters := []arbiter.Arbiter{
		arbiter.NewRoundRobin(1),
		arbiter.NewRoundRobin(3),
		arbiter.NewWeightedRR(1, func(c model.CoreID) int64 { return int64(c)%2 + 1 }),
	}
	return sched.Options{Arbiter: arbiters[ci%len(arbiters)], SeparateCompetitors: ci%2 == 1}
}

// identical asserts every analyzed quantity matches bit-for-bit: releases,
// responses, makespan, iteration count, and the per-bank interference
// split, so an image-port bug cannot hide in an aggregate.
func identical(t *testing.T, label string, got, want *sched.Result) {
	t.Helper()
	if d := got.Diff(want); d != "" {
		t.Fatalf("%s: schedules diverge: %s", label, d)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("%s: makespan %d vs %d", label, got.Makespan, want.Makespan)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: iterations %d vs %d", label, got.Iterations, want.Iterations)
	}
	for i := range got.Interference {
		if got.Interference[i] != want.Interference[i] {
			t.Fatalf("%s: task %d interference %d vs %d", label, i, got.Interference[i], want.Interference[i])
		}
		for b := range got.PerBank[i] {
			if got.PerBank[i][b] != want.PerBank[i][b] {
				t.Fatalf("%s: task %d bank %d: %d vs %d", label, i, b, got.PerBank[i][b], want.PerBank[i][b])
			}
		}
	}
}

// TestEngineBitIdenticalToDirectPath holds the engine's run paths to one
// answer over the full differential corpus: for the incremental backend,
// the warm first run, the zero-edit replay and AnalyzeCold over one shared
// image are bit-identical to a cold Analyze; for the fixpoint backend, its
// always-cold Warm is bit-identical to its cold Analyze.
func TestEngineBitIdenticalToDirectPath(t *testing.T) {
	ctx := context.Background()
	inc := engine.MustNew(engine.Incremental)
	fix := engine.MustNew(engine.Fixpoint)
	corpus := diffCorpus()
	if len(corpus) < 200 {
		t.Fatalf("corpus has %d instances, want ≥ 200", len(corpus))
	}
	for ci, p := range corpus {
		g := gen.MustLayered(p)
		opts := corpusOpts(ci)
		label := fmt.Sprintf("corpus[%d] %d layers × %d, %d×%d shared=%v separate=%v",
			ci, p.Layers, p.LayerSize, p.Cores, p.Banks, p.SharedBank, opts.SeparateCompetitors)

		img, err := engine.Compile(g, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", label, err)
		}

		// Incremental: cold vs warm vs replay vs AnalyzeCold.
		cold, err := inc.Analyze(ctx, img)
		if err != nil {
			t.Fatalf("%s: engine incremental: %v", label, err)
		}
		w := inc.NewWarm(img)
		warm, err := w.Analyze(ctx)
		if err != nil {
			t.Fatalf("%s: warm analyze: %v", label, err)
		}
		identical(t, label+" warm-first", warm, cold)
		replay, err := w.Reschedule(ctx) // zero edits: replay from the last checkpoint
		if err != nil {
			t.Fatalf("%s: zero-edit replay: %v", label, err)
		}
		identical(t, label+" warm-replay", replay, cold)
		coldAgain, err := w.AnalyzeCold(ctx)
		if err != nil {
			t.Fatalf("%s: analyze cold: %v", label, err)
		}
		identical(t, label+" warm-cold-oracle", coldAgain, cold)

		// Fixpoint baseline: cold Analyze vs its always-cold Warm.
		fcold, err := fix.Analyze(ctx, img)
		if err != nil {
			t.Fatalf("%s: engine fixpoint: %v", label, err)
		}
		fwarm, err := fix.NewWarm(img).Analyze(ctx)
		if err != nil {
			t.Fatalf("%s: fixpoint warm: %v", label, err)
		}
		identical(t, label+" fixpoint", fwarm, fcold)
	}
}

// legalSwap returns one adjacent swap site of g not contradicted by a
// direct dependency, or ok=false when none exists.
func legalSwap(g *model.Graph) (core model.CoreID, pos int, ok bool) {
	dep := make(map[[2]model.TaskID]bool, len(g.Edges()))
	for _, e := range g.Edges() {
		dep[[2]model.TaskID{e.From, e.To}] = true
	}
	for k := 0; k < g.Cores; k++ {
		order := g.Order(model.CoreID(k))
		for p := 0; p+1 < len(order); p++ {
			if !dep[[2]model.TaskID{order[p], order[p+1]}] {
				return model.CoreID(k), p, true
			}
		}
	}
	return 0, 0, false
}

// TestEditedRescheduleMatchesDirectPath drives the warm edit path: apply an
// adjacent swap to the analyzer's order overlay, Reschedule with the edit
// hint, and require bit-identity with a cold analysis of the recompiled
// edited graph — plus fingerprint equality between the overlay hash and the
// edited graph's canonical hash (the serving layer's response key).
func TestEditedRescheduleMatchesDirectPath(t *testing.T) {
	ctx := context.Background()
	inc := engine.MustNew(engine.Incremental)
	for ci, p := range diffCorpus() {
		if ci%4 != 0 {
			continue // a quarter of the corpus keeps the edit path fast but broad
		}
		g := gen.MustLayered(p)
		opts := corpusOpts(ci)
		core, pos, ok := legalSwap(g)
		if !ok {
			continue
		}
		label := fmt.Sprintf("corpus[%d] swap core %d pos %d", ci, core, pos)

		img, err := engine.Compile(g, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", label, err)
		}
		w := inc.NewWarm(img)
		if _, err := w.Analyze(ctx); err != nil {
			t.Fatalf("%s: baseline analyze: %v", label, err)
		}

		edited := g.Clone()
		edited.SwapOrder(core, pos)
		want, err := coldRun(engine.Incremental, edited, opts)
		if err != nil {
			t.Fatalf("%s: cold edited: %v", label, err)
		}

		ord := w.Orders()
		ord.Swap(core, pos)
		if gotFP, wantFP := img.FingerprintOrders(ord), edited.Fingerprint(); gotFP != wantFP {
			t.Fatalf("%s: overlay fingerprint %s != edited graph fingerprint %s", label, gotFP, wantFP)
		}
		got, err := w.Reschedule(ctx, engine.Edit{Core: core, From: pos})
		if err != nil {
			t.Fatalf("%s: edited reschedule: %v", label, err)
		}
		identical(t, label, got, want)

		// Undo restores the baseline bit-for-bit, including the hash.
		ord.Swap(core, pos)
		if gotFP := img.FingerprintOrders(ord); gotFP != img.Fingerprint() {
			t.Fatalf("%s: undo did not restore the baseline fingerprint", label)
		}
		back, err := w.Reschedule(ctx, engine.Edit{Core: core, From: pos})
		if err != nil {
			t.Fatalf("%s: undo reschedule: %v", label, err)
		}
		base, err := coldRun(engine.Incremental, g, opts)
		if err != nil {
			t.Fatalf("%s: cold baseline: %v", label, err)
		}
		identical(t, label+" undo", back, base)
	}
}

// TestImageFingerprintMatchesGraph pins the hash bridge: an image's
// fingerprint equals the source graph's canonical fingerprint, so image
// registries and graph registries key identically.
func TestImageFingerprintMatchesGraph(t *testing.T) {
	g := gen.Figure1()
	img, err := engine.Compile(g, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if img.Fingerprint() != g.Fingerprint() {
		t.Fatalf("image fingerprint %s != graph fingerprint %s", img.Fingerprint(), g.Fingerprint())
	}
	if ng := img.NewGraph(); ng.Fingerprint() != g.Fingerprint() {
		t.Fatalf("NewGraph fingerprint diverges")
	}
}
