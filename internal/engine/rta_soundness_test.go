package engine_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/rta"
)

// TestRTABoundDominatesIncremental pins the precision spectrum: the
// window-free compositional backend charges every task the demand of all
// other-core bank-sharers, a superset of what any window-based analysis can
// see, so under the monotone round-robin arbiter family every analyzed
// quantity must dominate the incremental scheduler's exact-overlap result —
// per-bank interference, per-task interference and response, release dates,
// and the makespan. A single violation means the cheap screen is unsound.
func TestRTABoundDominatesIncremental(t *testing.T) {
	ctx := context.Background()
	eng := engine.MustNew(engine.RTA)
	for ci, p := range diffCorpus() {
		if ci%3 != 0 {
			continue // a third of the corpus: every shape×platform pair appears
		}
		g := gen.MustLayered(p)
		opts := corpusOpts(ci)
		label := fmt.Sprintf("corpus[%d]", ci)

		exact, err := coldRun(engine.Incremental, g, opts)
		if err != nil {
			t.Fatalf("%s: incremental: %v", label, err)
		}
		img, err := engine.Compile(g, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", label, err)
		}
		bound, err := eng.Analyze(ctx, img)
		if err != nil {
			t.Fatalf("%s: rta: %v", label, err)
		}
		if bound.Algorithm != rta.Algorithm {
			t.Fatalf("%s: algorithm %q, want %q", label, bound.Algorithm, rta.Algorithm)
		}

		for i := range exact.Interference {
			if bound.Interference[i] < exact.Interference[i] {
				t.Fatalf("%s: task %d interference bound %d < exact %d",
					label, i, bound.Interference[i], exact.Interference[i])
			}
			if bound.Response[i] < exact.Response[i] {
				t.Fatalf("%s: task %d response bound %d < exact %d",
					label, i, bound.Response[i], exact.Response[i])
			}
			if bound.Release[i] < exact.Release[i] {
				t.Fatalf("%s: task %d release bound %d < exact %d",
					label, i, bound.Release[i], exact.Release[i])
			}
			for b := range exact.PerBank[i] {
				if bound.PerBank[i][b] < exact.PerBank[i][b] {
					t.Fatalf("%s: task %d bank %d bound %d < exact %d",
						label, i, b, bound.PerBank[i][b], exact.PerBank[i][b])
				}
			}
		}
		if bound.Makespan < exact.Makespan {
			t.Fatalf("%s: makespan bound %d < exact %d", label, bound.Makespan, exact.Makespan)
		}

		// The backend has no warm state: its Warm adapter must be a plain
		// cold run, bit-identical to Analyze.
		w := eng.NewWarm(img)
		if w.Warm() {
			t.Fatalf("%s: rta analyzer claims warm state", label)
		}
		again, err := w.Analyze(ctx)
		if err != nil {
			t.Fatalf("%s: rta warm-adapter: %v", label, err)
		}
		identical(t, label+" rta cold-vs-adapter", again, bound)
	}
}
