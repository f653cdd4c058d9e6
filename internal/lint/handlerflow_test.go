package lint_test

import (
	"context"
	"testing"

	"github.com/mia-rt/mia/internal/lint"
	"github.com/mia-rt/mia/internal/lint/linttest"
)

func TestHandlerFlow(t *testing.T) {
	linttest.Run(context.Background(), t, "testdata/handlerflow", []*lint.Analyzer{lint.HandlerFlow})
}
