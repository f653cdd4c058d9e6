package lint

import (
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"github.com/mia-rt/mia/internal/pool"
)

// An Analyzer is one named check. Run inspects a single type-checked package
// through its Pass and reports findings with Pass.Reportf; the driver owns
// suppression, ordering, and aggregation.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one package. Graph is the module-wide
// call graph, shared read-only by every pass, for the interprocedural
// analyzers (transitive hotpathalloc, goroleak, handlerflow summaries).
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Graph    *CallGraph

	report   func(token.Pos, string)
	suppress func(token.Pos) bool
}

// Reportf records a diagnostic at pos. The driver drops it silently when a
// //mialint:ignore directive covers the position for this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Suppressed reports whether a //mialint:ignore directive for this analyzer
// covers pos, marking the directive used. Interprocedural analyzers call it
// for positions in *other* packages (an allocating construct in a callee,
// say) whose diagnostic will be reported at a call site elsewhere: the
// justification belongs next to the construct, and must still count as used.
func (p *Pass) Suppressed(pos token.Pos) bool {
	return p.suppress(pos)
}

// directiveAnalyzer is the pseudo-analyzer name under which malformed
// //mialint:ignore directives are reported. It is not suppressible.
const directiveAnalyzer = "mialint"

// ignoreDirective is one parsed //mialint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int
	analyzers []string // empty means the directive was malformed
	used      bool
}

// covers reports whether the directive suppresses analyzer a at the given
// position: same file, on the directive's line or the line directly below
// (the standalone-comment-above-the-construct form).
func (ig *ignoreDirective) covers(analyzer string, pos token.Position) bool {
	if pos.Filename != ig.file || (pos.Line != ig.line && pos.Line != ig.line+1) {
		return false
	}
	for _, a := range ig.analyzers {
		if a == analyzer {
			return true
		}
	}
	return false
}

// directiveTable holds every package's parsed ignore directives for one run.
// The mutex makes the used-marking safe when Run analyzes packages in
// parallel; marking is idempotent and every package is always analyzed, so
// the final used set — and therefore the stale-directive diagnostics — is
// identical at any job count.
type directiveTable struct {
	mu     sync.Mutex
	byFile map[string][]*ignoreDirective
}

// suppress reports whether any directive covers (analyzer, pos), marking the
// first match used.
func (t *directiveTable) suppress(analyzer string, pos token.Position) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ig := range t.byFile[pos.Filename] {
		if ig.covers(analyzer, pos) {
			ig.used = true
			return true
		}
	}
	return false
}

// stale returns a diagnostic for every directive that suppressed nothing.
func (t *directiveTable) stale(known map[string]bool) []Diagnostic {
	t.mu.Lock()
	defer t.mu.Unlock()
	var diags []Diagnostic
	for _, igs := range t.byFile {
		for _, ig := range igs {
			if !ig.used && allKnown(ig.analyzers, known) {
				diags = append(diags, Diagnostic{
					Pos:      token.Position{Filename: ig.file, Line: ig.line, Column: 1},
					Analyzer: directiveAnalyzer,
					Message:  fmt.Sprintf("//mialint:ignore %s suppresses nothing; delete it", strings.Join(ig.analyzers, ",")),
				})
			}
		}
	}
	return diags
}

// parseIgnores scans a package's comments for //mialint:ignore directives.
// Malformed directives (no analyzer list, or no " -- reason") are returned
// as diagnostics: a suppression that does not document its justification is
// itself a violation, which is what makes the escape hatch auditable.
func parseIgnores(pkg *Package, known map[string]bool) (igs []*ignoreDirective, malformed []Diagnostic) {
	const prefix = "//mialint:ignore"
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, prefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //mialint:ignoreXYZ — not our directive
				}
				names, reason, ok := strings.Cut(rest, "--")
				reason = strings.TrimSpace(reason)
				var list []string
				for _, n := range strings.FieldsFunc(names, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
					list = append(list, n)
				}
				switch {
				case !ok || reason == "":
					malformed = append(malformed, Diagnostic{
						Pos:      pos,
						Analyzer: directiveAnalyzer,
						Message:  "//mialint:ignore requires a reason: //mialint:ignore <analyzer> -- <why the invariant holds anyway>",
					})
				case len(list) == 0:
					malformed = append(malformed, Diagnostic{
						Pos:      pos,
						Analyzer: directiveAnalyzer,
						Message:  "//mialint:ignore names no analyzer to suppress",
					})
				default:
					for _, n := range list {
						if !known[n] {
							malformed = append(malformed, Diagnostic{
								Pos:      pos,
								Analyzer: directiveAnalyzer,
								Message:  fmt.Sprintf("//mialint:ignore names unknown analyzer %q", n),
							})
						}
					}
					igs = append(igs, &ignoreDirective{file: pos.Filename, line: pos.Line, analyzers: list})
				}
			}
		}
	}
	return igs, malformed
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by position. Packages are analyzed on up to jobs
// workers (pool.Map; jobs <= 1 is its plain sequential loop), and the output
// is byte-identical at any job count: packages are analyzed independently,
// the per-package diagnostic slices are merged in package order, and the
// final sort imposes a total order. Unused //mialint:ignore directives are
// reported too: a suppression that no longer suppresses anything is stale
// documentation and must be deleted rather than accumulate.
func Run(ctx context.Context, jobs int, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	run := newRunState(pkgs, analyzers)
	perPkg, err := pool.Map(ctx, jobs, len(pkgs), func(_ context.Context, i int) ([]Diagnostic, error) {
		return run.analyzePackage(i)
	})
	if err != nil {
		return nil, err
	}
	return run.finish(perPkg), nil
}

// runState is the shared, read-mostly state of one lint run: the loaded
// packages, the module call graph, and the directive table (the one mutable
// structure, internally locked).
type runState struct {
	pkgs      []*Package
	analyzers []*Analyzer
	known     map[string]bool
	graph     *CallGraph
	table     *directiveTable
	malformed []Diagnostic
}

func newRunState(pkgs []*Package, analyzers []*Analyzer) *runState {
	run := &runState{
		pkgs:      pkgs,
		analyzers: analyzers,
		known:     make(map[string]bool, len(analyzers)),
		table:     &directiveTable{byFile: make(map[string][]*ignoreDirective)},
	}
	for _, a := range analyzers {
		run.known[a.Name] = true
	}
	for _, pkg := range pkgs {
		igs, malformed := parseIgnores(pkg, run.known)
		run.malformed = append(run.malformed, malformed...)
		for _, ig := range igs {
			run.table.byFile[ig.file] = append(run.table.byFile[ig.file], ig)
		}
	}
	run.graph = BuildCallGraph(pkgs)
	return run
}

// analyzePackage runs every analyzer over one package and returns its
// diagnostics. Safe to call concurrently for distinct packages: analyzers
// only read the type-checked packages and the call graph, and the directive
// table locks internally.
func (run *runState) analyzePackage(i int) ([]Diagnostic, error) {
	pkg := run.pkgs[i]
	var diags []Diagnostic
	for _, a := range run.analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, Graph: run.graph}
		pass.suppress = func(pos token.Pos) bool {
			return run.table.suppress(a.Name, pkg.Fset.Position(pos))
		}
		pass.report = func(pos token.Pos, msg string) {
			p := pkg.Fset.Position(pos)
			if run.table.suppress(a.Name, p) {
				return
			}
			diags = append(diags, Diagnostic{Pos: p, Analyzer: a.Name, Message: msg})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.PkgPath, err)
		}
	}
	return diags, nil
}

// finish merges the per-package diagnostics in package order, appends the
// malformed- and stale-directive reports, and sorts everything into the total
// output order.
func (run *runState) finish(perPkg [][]Diagnostic) []Diagnostic {
	var diags []Diagnostic
	diags = append(diags, run.malformed...)
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	diags = append(diags, run.table.stale(run.known)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// allKnown reports whether every named analyzer is part of this run; an
// ignore for an analyzer that was filtered out of the run is not "unused".
func allKnown(names []string, known map[string]bool) bool {
	for _, n := range names {
		if !known[n] {
			return false
		}
	}
	return true
}

// inspect walks every file of the pass's package in source order.
func (p *Pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for builtins, conversions, and calls of function-typed values.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	return calleeFuncIn(p.Pkg.Info, call)
}
