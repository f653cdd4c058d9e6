// Package linttest is the golden-diagnostic harness for the mialint
// analyzers — the stdlib stand-in for golang.org/x/tools' analysistest.
// A fixture is a self-contained Go module under testdata whose source lines
// carry expectations:
//
//	x := f() * g() // want boundedinput:"product of model quantities"
//
// Each `name:"regexp"` token demands exactly one diagnostic from analyzer
// name on that line whose message matches the regexp. Run fails the test on
// any unmatched expectation (the analyzer regressed and stopped firing) and
// on any unexpected diagnostic (it started over-firing), so an analyzer's
// diagnostics cannot drift silently in either direction.
package linttest

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/lint"
)

// wantRe matches one `name:"regexp"` expectation token. The quoted part
// uses Go string-literal escaping so expectations can contain quotes.
var wantRe = regexp.MustCompile(`([a-z]+):("(?:[^"\\]|\\.)*")`)

// expectation is one demanded diagnostic.
type expectation struct {
	file     string
	line     int
	analyzer string
	re       *regexp.Regexp
	matched  bool
}

// Run loads the fixture module at dir, applies the analyzers on one worker,
// and compares the resulting diagnostics against the fixture's // want
// expectations.
func Run(ctx context.Context, t *testing.T, dir string, analyzers []*lint.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	wants, err := collectWants(abs)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	pkgs, err := lint.Load(abs)
	if err != nil {
		t.Fatalf("linttest: loading fixture %s: %v", dir, err)
	}
	diags, err := lint.Run(ctx, 1, pkgs, analyzers)
	if err != nil {
		t.Fatalf("linttest: running analyzers on %s: %v", dir, err)
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic: %s:%d: %s: /%s/", w.file, w.line, w.analyzer, w.re)
		}
	}
}

// claim marks the first unmatched expectation covering d and reports
// whether one existed.
func claim(wants []*expectation, d lint.Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line &&
			w.analyzer == d.Analyzer && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants scans every .go file under dir for // want expectations.
func collectWants(dir string) ([]*expectation, error) {
	var wants []*expectation
	err := filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, spec, ok := strings.Cut(sc.Text(), "// want ")
			if !ok {
				continue
			}
			ms := wantRe.FindAllStringSubmatch(spec, -1)
			if len(ms) == 0 {
				return fmt.Errorf("%s:%d: malformed // want comment %q", path, line, spec)
			}
			for _, m := range ms {
				pat, err := strconv.Unquote(m[2])
				if err != nil {
					return fmt.Errorf("%s:%d: bad want pattern %s: %v", path, line, m[2], err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return fmt.Errorf("%s:%d: bad want regexp: %v", path, line, err)
				}
				wants = append(wants, &expectation{file: path, line: line, analyzer: m[1], re: re})
			}
		}
		return sc.Err()
	})
	return wants, err
}
