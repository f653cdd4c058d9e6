package fixpoint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/sched"
)

var update = flag.Bool("update", false, "rewrite golden files with current results")

// TestAgreementGolden pins the exact incremental-vs-baseline agreement rates
// on a fixed corpus into a checked-in golden file. The broader
// cross-validation test asserts loose thresholds (≥ 60% identical
// instances); this one instead notices any drift at all: both algorithms are
// deterministic, so a change in either — or in the generator, or in the
// arbiter bounds — shows up as a golden diff and must be reviewed
// deliberately (run with -update to accept).
func TestAgreementGolden(t *testing.T) {
	configs := []struct {
		name              string
		layers, layerSize int
		cores, banks      int
		shared            bool
	}{
		{"ls-deep", 8, 3, 3, 3, false},
		{"nl-wide", 3, 10, 8, 8, false},
		{"contended", 5, 5, 4, 1, true},
		{"balanced", 5, 6, 4, 4, false},
	}
	opts := sched.Options{Arbiter: arbiter.NewRoundRobin(1)}

	var b strings.Builder
	fmt.Fprintf(&b, "# incremental vs fixpoint agreement (fixed corpus, round-robin L=1)\n")
	var allEq, allTotal, allTAgree, allTTotal int
	for _, cfg := range configs {
		equal, total := 0, 0
		tasksAgree, tasksTotal := 0, 0
		for seed := int64(1); seed <= 25; seed++ {
			p := gen.NewParams(cfg.layers, cfg.layerSize)
			p.Seed = seed
			p.Cores, p.Banks, p.SharedBank = cfg.cores, cfg.banks, cfg.shared
			g := gen.MustLayered(p)
			fast, err := schedule(engine.Incremental, g, opts)
			if err != nil {
				t.Fatalf("%s seed %d: incremental: %v", cfg.name, seed, err)
			}
			slow, err := schedule(engine.Fixpoint, g, opts)
			if err != nil {
				t.Fatalf("%s seed %d: fixpoint: %v", cfg.name, seed, err)
			}
			total++
			if fast.Equal(slow) {
				equal++
			}
			for i := range fast.Release {
				tasksTotal++
				if fast.Release[i] == slow.Release[i] && fast.Response[i] == slow.Response[i] {
					tasksAgree++
				}
			}
		}
		fmt.Fprintf(&b, "%s: identical %d/%d instances, per-task %d/%d\n",
			cfg.name, equal, total, tasksAgree, tasksTotal)
		allEq += equal
		allTotal += total
		allTAgree += tasksAgree
		allTTotal += tasksTotal
	}
	fmt.Fprintf(&b, "overall: identical %d/%d instances (%.1f%%), per-task %d/%d (%.1f%%)\n",
		allEq, allTotal, 100*float64(allEq)/float64(allTotal),
		allTAgree, allTTotal, 100*float64(allTAgree)/float64(allTTotal))
	got := b.String()

	golden := filepath.Join("testdata", "agreement.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("agreement drifted from golden file (run with -update to accept):\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
