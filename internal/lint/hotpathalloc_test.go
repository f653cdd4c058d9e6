package lint_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/lint"
	"github.com/mia-rt/mia/internal/lint/linttest"
)

func TestHotPathAlloc(t *testing.T) {
	linttest.Run(context.Background(), t, "testdata/hotpath", []*lint.Analyzer{lint.HotPathAlloc})
}

// TestTransitiveHotPathReportsFullPath pins the exact shape of the
// transitive diagnostics: the call-site position, the construct label, the
// callee-local position of the allocation, and — the load-bearing part —
// the full indicting call path from the annotated function down to the
// allocating helper.
func TestTransitiveHotPathReportsFullPath(t *testing.T) {
	dir, err := filepath.Abs("testdata/hotpath")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(dir)
	if err != nil {
		t.Fatalf("loading hotpath fixture: %v", err)
	}
	diags, err := lint.Run(context.Background(), 1, pkgs, []*lint.Analyzer{lint.HotPathAlloc})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		if !strings.Contains(d.Message, "(path:") {
			continue
		}
		got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message))
	}
	want := []string{
		"transitive.go:14: call to (*hp.state).fill reaches a make call at transitive.go:18 on the //mia:hotpath (path: (*hp.state).refill -> (*hp.state).fill)",
		"transitive.go:25: call to (*hp.state).viaA reaches a fmt.Sprintf call at transitive.go:30 on the //mia:hotpath (path: (*hp.state).tick -> (*hp.state).viaA -> (*hp.state).viaB)",
		"transitive.go:36: call to helpers.Scratch reaches a make call at helpers.go:9 on the //mia:hotpath (path: (*hp.state).borrow -> helpers.Scratch)",
	}
	if len(got) != len(want) {
		t.Fatalf("transitive diagnostics:\n  got  %q\n  want %q", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}
}
