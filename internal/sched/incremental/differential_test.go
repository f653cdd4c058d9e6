package incremental

import (
	"fmt"
	"testing"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// differentialCorpus enumerates the seeded random DAGs the cached fast path
// is differentially tested on: both benchmark families (LS-like shapes with
// many small layers, NL-like shapes with few wide layers) across platform
// geometries, bank layouts, and seeds. Kept in one place so the corpus size
// is auditable — the acceptance bar is ≥ 200 instances.
func differentialCorpus() []gen.Params {
	shapes := []struct {
		family       string
		layers, size int
	}{
		{"LS", 8, 4}, {"LS", 12, 4}, {"LS", 6, 8}, // fixed small layer size, growing depth
		{"NL", 4, 8}, {"NL", 4, 12}, {"NL", 6, 10}, // fixed shallow depth, growing width
	}
	platforms := []struct {
		cores, banks int
		shared       bool
	}{
		{4, 4, false},
		{8, 8, false},
		{4, 1, true}, // maximal contention: every task on every other's bank
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

// identical asserts every analyzed quantity matches bit-for-bit — not just
// the Release/Response pair that Result.Equal compares, but the per-bank
// interference split and the event count too, so a cache bug cannot hide in
// an aggregate.
func identical(t *testing.T, label string, fast, slow *sched.Result) {
	t.Helper()
	if d := fast.Diff(slow); d != "" {
		t.Fatalf("%s: fast/oracle schedules diverge: %s", label, d)
	}
	if fast.Makespan != slow.Makespan {
		t.Fatalf("%s: makespan %d (fast) vs %d (oracle)", label, fast.Makespan, slow.Makespan)
	}
	if fast.Iterations != slow.Iterations {
		t.Fatalf("%s: iterations %d (fast) vs %d (oracle)", label, fast.Iterations, slow.Iterations)
	}
	for i := range fast.Interference {
		if fast.Interference[i] != slow.Interference[i] {
			t.Fatalf("%s: task %d interference %d (fast) vs %d (oracle)",
				label, i, fast.Interference[i], slow.Interference[i])
		}
		for b := range fast.PerBank[i] {
			if fast.PerBank[i][b] != slow.PerBank[i][b] {
				t.Fatalf("%s: task %d bank %d: %d (fast) vs %d (oracle)",
					label, i, b, fast.PerBank[i][b], slow.PerBank[i][b])
			}
		}
	}
}

// TestCachedFastPathMatchesOracle is the differential property test behind
// the cached-IBUS kernel: on every corpus instance, under every additive
// arbiter and both competitor-merging modes, the memoized fast path must
// produce a bit-identical schedule to the uncached reference path (the same
// arbiter wrapped in arbiter.NonAdditive), which recomputes the full bound
// over the competitor set at every update.
func TestCachedFastPathMatchesOracle(t *testing.T) {
	arbiters := []arbiter.Arbiter{
		arbiter.NewRoundRobin(1),
		arbiter.NewRoundRobin(3),
		arbiter.NewWeightedRR(1, func(c model.CoreID) int64 { return int64(c)%2 + 1 }),
	}
	corpus := differentialCorpus()
	if len(corpus) < 200 {
		t.Fatalf("differential corpus has %d instances, want ≥ 200", len(corpus))
	}
	instances := 0
	for ci, p := range corpus {
		g, err := gen.Layered(p)
		if err != nil {
			t.Fatalf("corpus[%d]: %v", ci, err)
		}
		// Rotate arbiter and merging mode across the corpus so every
		// combination appears many times without multiplying the runtime.
		arb := arbiters[ci%len(arbiters)]
		separate := ci%2 == 1
		label := fmt.Sprintf("corpus[%d] %d layers × %d, %d×%d shared=%v arb=%s separate=%v",
			ci, p.Layers, p.LayerSize, p.Cores, p.Banks, p.SharedBank, arb.Name(), separate)

		base := sched.Options{Arbiter: arb, SeparateCompetitors: separate}
		fast, err := schedule(g, base)
		if err != nil {
			t.Fatalf("%s: fast path: %v", label, err)
		}
		oracle := base
		oracle.Arbiter = arbiter.NonAdditive{Inner: arb}
		slow, err := schedule(g, oracle)
		if err != nil {
			t.Fatalf("%s: oracle path: %v", label, err)
		}
		identical(t, label, fast, slow)
		if err := sched.Check(g, base, fast); err != nil {
			t.Fatalf("%s: invariant check: %v", label, err)
		}
		instances++
	}
	if instances < 200 {
		t.Fatalf("only %d instances compared", instances)
	}
}

// TestOracleFlagReachesNonAdditiveArbiters pins the oracle's semantics for
// policies that never had a fast path: wrapping them in arbiter.NonAdditive
// (what miasched -oracle does) must be a no-op, not an error or a different
// schedule.
func TestOracleFlagReachesNonAdditiveArbiters(t *testing.T) {
	p := gen.NewParams(6, 6)
	p.Cores, p.Banks = 4, 4
	g := gen.MustLayered(p)
	arb := arbiter.NewTDM(4, 2)
	a, err := schedule(g, sched.Options{Arbiter: arb})
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule(g, sched.Options{Arbiter: arbiter.NonAdditive{Inner: arb}})
	if err != nil {
		t.Fatal(err)
	}
	identical(t, "tdm", a, b)
}
