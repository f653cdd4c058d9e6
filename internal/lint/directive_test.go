package lint_test

import (
	"context"
	"testing"

	"github.com/mia-rt/mia/internal/lint"
	"github.com/mia-rt/mia/internal/lint/linttest"
)

// TestDirectives checks the pseudo-analyzer that polices the escape hatch
// itself: missing reasons, empty analyzer lists, unknown analyzer names,
// and stale (unused) ignores all surface as mialint diagnostics.
// Determinism is passed as the known analyzer so that the valid-but-unused
// directive in the fixture counts as stale.
func TestDirectives(t *testing.T) {
	linttest.Run(context.Background(), t, "testdata/directives", []*lint.Analyzer{lint.Determinism})
}
