package lint_test

import (
	"context"
	"testing"

	"github.com/mia-rt/mia/internal/lint"
	"github.com/mia-rt/mia/internal/lint/linttest"
)

func TestDeterminism(t *testing.T) {
	linttest.Run(context.Background(), t, "testdata/determ", []*lint.Analyzer{lint.Determinism})
}
