package pareto

import (
	"bytes"
	"context"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/explore/objective"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// smokeImage is the instance the determinism suite and the pareto-smoke CI
// gate share: a 20-task layered graph on a 4-core/4-bank platform.
func smokeImage(t testing.TB) *engine.Image {
	t.Helper()
	p := gen.NewParams(5, 4)
	p.Seed = 11
	p.Cores, p.Banks = 4, 4
	img, err := engine.Compile(gen.MustLayered(p), sched.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return img
}

func smokeOptions(jobs int) Options {
	return Options{PopSize: 12, Generations: 8, Seed: 7, Jobs: jobs}
}

// TestByteIdenticalAcrossJobs pins the determinism contract: the canonical
// encoding of the front is byte-identical at every worker count.
func TestByteIdenticalAcrossJobs(t *testing.T) {
	img := smokeImage(t)
	ctx := context.Background()
	ref, err := Search(ctx, img, smokeOptions(1))
	if err != nil {
		t.Fatalf("Search(jobs=1): %v", err)
	}
	if len(ref.Front) == 0 {
		t.Fatalf("empty front")
	}
	want := ref.Encode()
	for _, jobs := range []int{2, 3, 8} {
		got, err := Search(ctx, img, smokeOptions(jobs))
		if err != nil {
			t.Fatalf("Search(jobs=%d): %v", jobs, err)
		}
		if !bytes.Equal(got.Encode(), want) {
			t.Fatalf("front at jobs=%d diverges from jobs=1:\n%s\nvs\n%s",
				jobs, got.Encode(), want)
		}
	}
}

// TestRepeatedSeededRunsIdentical reruns the same seeded search and demands
// byte-identical output; a different seed must still produce a valid
// (non-empty, mutually non-dominated) front.
func TestRepeatedSeededRunsIdentical(t *testing.T) {
	img := smokeImage(t)
	ctx := context.Background()
	a, err := Search(ctx, img, smokeOptions(2))
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	b, err := Search(ctx, img, smokeOptions(2))
	if err != nil {
		t.Fatalf("Search (rerun): %v", err)
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatalf("repeated seeded runs diverge:\n%s\nvs\n%s", a.Encode(), b.Encode())
	}
	opts := smokeOptions(2)
	opts.Seed = 99
	c, err := Search(ctx, img, opts)
	if err != nil {
		t.Fatalf("Search (seed 99): %v", err)
	}
	assertMutuallyNonDominated(t, "seed 99", c.Front)
}

func assertMutuallyNonDominated(t *testing.T, label string, pts []Point) {
	t.Helper()
	if len(pts) == 0 {
		t.Fatalf("%s: empty front", label)
	}
	for i := range pts {
		for j := range pts {
			if i != j && dominates(pts[i].Values, pts[j].Values) {
				t.Fatalf("%s: front not non-dominated: %v dominates %v",
					label, pts[i].Values, pts[j].Values)
			}
		}
	}
}

// TestFrontUpdatesMonotone replays the OnFront stream and checks the served
// contract: generations and evaluation counts never decrease, every
// snapshot is mutually non-dominated, and every point of an earlier
// snapshot is either still present later or dominated by a successor —
// the front only ever improves.
func TestFrontUpdatesMonotone(t *testing.T) {
	img := smokeImage(t)
	var updates []FrontUpdate
	opts := smokeOptions(2)
	opts.OnFront = func(u FrontUpdate) { updates = append(updates, u) }
	res, err := Search(context.Background(), img, opts)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(updates) == 0 {
		t.Fatalf("no front updates emitted")
	}
	for n, u := range updates {
		assertMutuallyNonDominated(t, "update", u.Points)
		if n == 0 {
			continue
		}
		prev := updates[n-1]
		if u.Generation < prev.Generation || u.Evaluations <= prev.Evaluations {
			t.Fatalf("update %d not monotone: gen %d→%d evals %d→%d",
				n, prev.Generation, u.Generation, prev.Evaluations, u.Evaluations)
		}
		for _, p := range prev.Points {
			if !survivedOrDominated(p, u.Points) {
				t.Fatalf("update %d dropped point %v (%s) without dominating it",
					n, p.Values, p.Fingerprint[:12])
			}
		}
	}
	last := updates[len(updates)-1]
	if !bytes.Equal(encodePoints(last.Points), encodePoints(res.Front)) {
		t.Fatalf("final update differs from result front")
	}
}

func survivedOrDominated(p Point, later []Point) bool {
	for _, q := range later {
		if q.Fingerprint == p.Fingerprint || dominates(q.Values, p.Values) || equalValues(q.Values, p.Values) {
			return true
		}
	}
	return false
}

func encodePoints(pts []Point) []byte {
	r := Result{Front: pts}
	return r.Encode()
}

// TestCancellationStopsSearch cancels the context from the first front
// update; the search must return promptly with the context's error.
func TestCancellationStopsSearch(t *testing.T) {
	img := smokeImage(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := smokeOptions(2)
	opts.OnFront = func(FrontUpdate) { cancel() }
	if _, err := Search(ctx, img, opts); err == nil {
		t.Fatalf("Search ignored cancellation")
	}
}

// TestFrontExploresStructuralMoves checks the portfolio actually leaves the
// order-only subspace: with enough generations at this size the front or
// archive history includes at least one remapped or repolicied candidate.
func TestFrontExploresStructuralMoves(t *testing.T) {
	img := smokeImage(t)
	opts := Options{PopSize: 16, Generations: 12, Seed: 3, Jobs: 4}
	structural := false
	opts.OnFront = func(u FrontUpdate) {
		for _, p := range u.Points {
			if p.Genome != nil && p.Genome.structural {
				structural = true
			}
		}
	}
	if _, err := Search(context.Background(), img, opts); err != nil {
		t.Fatalf("Search: %v", err)
	}
	if !structural {
		t.Fatalf("no structural candidate ever reached the front")
	}
}

// badOrderGraph builds a 2-core graph whose default order is deliberately
// overridden to a poor one: a long task with a distant consumer scheduled
// first would be better last.
func badOrderGraph(t testing.TB) *model.Graph {
	t.Helper()
	b := model.NewBuilder(2, 1)
	// Core 0 runs three independent tasks; core 1 runs a consumer of "a".
	a := b.AddTask(model.TaskSpec{Name: "a", WCET: 10, Core: 0, Local: 2})
	x := b.AddTask(model.TaskSpec{Name: "x", WCET: 50, Core: 0, Local: 2})
	y := b.AddTask(model.TaskSpec{Name: "y", WCET: 50, Core: 0, Local: 2})
	c := b.AddTask(model.TaskSpec{Name: "c", WCET: 30, Core: 1, Local: 2})
	b.AddEdge(a, c, 1)
	// Worst order: a last → c waits 110 before starting.
	b.SetOrder(0, []model.TaskID{x, y, a})
	return b.MustBuild()
}

// TestMakespanOnlySearchImproves runs a single-objective search on the bad
// order and requires the front to reach the near-optimal makespan: with a
// first (finish 10), c runs [10,40+I) while x and y fill core 0, so the
// makespan drops to about 110.
func TestMakespanOnlySearchImproves(t *testing.T) {
	img, err := engine.Compile(badOrderGraph(t), sched.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ctx := context.Background()
	initial, err := engine.MustNew(engine.Incremental).Analyze(ctx, img)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := Search(ctx, img, Options{Objectives: []objective.Objective{objective.Makespan{}}, Seed: 1})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	best := res.Front[0].Values[0]
	if best >= float64(initial.Makespan) {
		t.Fatalf("no improvement: %d → %g", initial.Makespan, best)
	}
	if best > 115 {
		t.Errorf("best makespan %g, expected ≈110", best)
	}
}

// TestSmokeGoldenFingerprint is the pareto-smoke CI gate: the canonical
// front fingerprint of the fixed smoke search is pinned. A legitimate
// algorithm change must update the golden value consciously.
func TestSmokeGoldenFingerprint(t *testing.T) {
	const golden = "58840b77696f24e872d221df89c7859879e7b8569a1f0ece265931bbb6978e7f"
	img := smokeImage(t)
	res, err := Search(context.Background(), img, smokeOptions(4))
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if fp := res.FrontFingerprint(); fp != golden {
		t.Fatalf("front fingerprint drifted:\n  got  %s\n  want %s\nfront:\n%s",
			fp, golden, res.Encode())
	}
}

// BenchmarkParetoGeneration measures one full smoke-scale NSGA-II search —
// the perf pin benchdiff tracks in BENCH_baseline.json.
func BenchmarkParetoGeneration(b *testing.B) {
	img := smokeImage(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(ctx, img, smokeOptions(4)); err != nil {
			b.Fatalf("Search: %v", err)
		}
	}
}
