package lint_test

import (
	"context"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/lint"
)

// render joins diagnostics exactly the way the CLI prints them, so a
// mismatch here is a mismatch the user would see.
func render(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRunParallelByteIdentical pins the acceptance criterion that mialint's
// diagnostic stream is byte-identical at any worker count: Run on one
// worker (pool.Map's plain sequential loop) and Run at several job counts
// must render the same bytes over a multi-package fixture that actually
// produces diagnostics.
func TestRunParallelByteIdentical(t *testing.T) {
	ctx := context.Background()
	pkgs, err := lint.Load("testdata/hotpath", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 2 {
		t.Fatalf("fixture loaded %d packages, need at least 2 for a meaningful parallel run", len(pkgs))
	}
	seq, err := lint.Run(ctx, 1, pkgs, lint.All())
	if err != nil {
		t.Fatalf("Run(jobs=1): %v", err)
	}
	if len(seq) == 0 {
		t.Fatal("fixture produced no diagnostics; the identity check would be vacuous")
	}
	want := render(seq)
	for _, jobs := range []int{2, 4, 8} {
		par, err := lint.Run(ctx, jobs, pkgs, lint.All())
		if err != nil {
			t.Fatalf("Run(jobs=%d): %v", jobs, err)
		}
		if got := render(par); got != want {
			t.Errorf("Run(jobs=%d) output differs from jobs=1:\n--- jobs=1\n%s\n--- jobs=%d\n%s", jobs, want, jobs, got)
		}
	}
}
