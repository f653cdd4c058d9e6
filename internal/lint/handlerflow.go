package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// handlerFlowScopes are the package-path fragments whose HTTP handlers must
// write exactly one status. Fragment matching (not exact paths) lets the
// fixture module reproduce the layout under its own module path.
var handlerFlowScopes = []string{"internal/server", "internal/shard"}

// HandlerFlow checks that every HTTP handler in the serving tier writes
// exactly one response status on every path. Zero writes leave the client
// with net/http's silent implicit 200 on an empty body; two writes surface
// only as a runtime "superfluous WriteHeader" log line after the wrong
// status already left the socket. The analysis (flowWalker, flow.go) counts
// status commits as an interval [lo, hi] per path — WriteHeader and the net/http reply helpers
// (Error, NotFound, Redirect, ServeFile, ServeContent) commit explicitly, a
// first body write commits an implicit 200 — and follows calls into module
// helpers and local closures via memoized summaries, so the funnel pattern
// (every handler exits through one writeReply) is understood rather than
// flagged. Reports are definite-only: a second commit is reported when the
// path has certainly committed before (lo >= 1), a missing one when no
// commit can have happened (hi == 0), so merge-heavy handlers stay quiet.
var HandlerFlow = &Analyzer{
	Name: "handlerflow",
	Doc:  "HTTP handlers in the serving tier must write exactly one response status per path",
	Run:  runHandlerFlow,
}

func runHandlerFlow(p *Pass) error {
	inScope := false
	for _, s := range handlerFlowScopes {
		if strings.Contains(p.Pkg.PkgPath, s) {
			inScope = true
		}
	}
	if !inScope {
		return nil
	}
	c := &hfChecker{
		pass:       p,
		summaries:  make(map[*types.Func]hfSummary),
		inProgress: make(map[*types.Func]bool),
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isHandlerSig(p.Pkg.Info, fd.Type) {
				c.walk(p.Pkg, fd.Body, true)
				continue
			}
			// Handler literals registered inline: mux.HandleFunc("/x",
			// func(w http.ResponseWriter, r *http.Request) { ... })
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if ok && isHandlerSig(p.Pkg.Info, lit.Type) {
					c.walk(p.Pkg, lit.Body, true)
					return false
				}
				return true
			})
		}
	}
	return nil
}

// isHandlerSig matches the http.HandlerFunc shape:
// func(http.ResponseWriter, *http.Request).
func isHandlerSig(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil || ft.Params.NumFields() != 2 {
		return false
	}
	var flat []ast.Expr
	for _, f := range ft.Params.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			flat = append(flat, f.Type)
		}
	}
	if len(flat) != 2 {
		return false
	}
	if !isResponseWriter(info.TypeOf(flat[0])) {
		return false
	}
	ptr, ok := info.TypeOf(flat[1]).(*types.Pointer)
	if !ok {
		return false
	}
	return isNetHTTPNamed(ptr.Elem(), "Request")
}

func isResponseWriter(t types.Type) bool {
	return isNetHTTPNamed(t, "ResponseWriter")
}

func isNetHTTPNamed(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == name
}

// hfSummary is a status-commit interval [lo, hi], capped at 2 (past two,
// more writes add no information). On a path it counts the statuses
// certainly and possibly committed so far; as a function's summary, across
// all its exit paths.
type hfSummary struct{ lo, hi int }

type hfChecker struct {
	pass       *Pass
	summaries  map[*types.Func]hfSummary
	inProgress map[*types.Func]bool
}

// summarize computes (memoized, cycle-safe) the commit interval of a module
// function. Recursion falls back to {0,0} — under-counting a cycle can at
// worst silence a report, never invent one.
func (c *hfChecker) summarize(fn *types.Func) hfSummary {
	if s, ok := c.summaries[fn]; ok {
		return s
	}
	if c.inProgress[fn] {
		return hfSummary{}
	}
	node := c.pass.Graph.Node(fn)
	if node == nil {
		return hfSummary{}
	}
	c.inProgress[fn] = true
	sm := c.walk(node.Pkg, node.Decl.Body, false)
	delete(c.inProgress, fn)
	c.summaries[fn] = sm
	return sm
}

// walk interprets one function body and returns the join of its exit
// intervals ({0,0} when no path leaves it). With report set, the body is a
// handler's and its violations are reported.
func (c *hfChecker) walk(pkg *Package, body *ast.BlockStmt, report bool) hfSummary {
	w := &hfWalker{c: c, pkg: pkg, report: report, locals: map[types.Object]*ast.FuncLit{}}
	w.bindLocalClosures(body)
	flow := flowWalker[*hfSummary]{info: pkg.Info, hooks: w}
	if st, ended := flow.stmts(body.List, &hfSummary{}); !ended {
		w.exit(body.Rbrace, st)
	}
	if w.out == nil {
		return hfSummary{}
	}
	return *w.out
}

type hfWalker struct {
	c      *hfChecker
	pkg    *Package
	report bool
	locals map[types.Object]*ast.FuncLit
	out    *hfSummary // join of the exits seen so far
}

// bindLocalClosures records `name := func(...) {...}` bindings so calls of
// name resolve to the literal's summary (the streamBatch writeTrailer
// pattern).
func (w *hfWalker) bindLocalClosures(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
			if !ok {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := w.pkg.Info.Defs[id]; obj != nil {
				w.locals[obj] = lit
			} else if obj := w.pkg.Info.Uses[id]; obj != nil {
				w.locals[obj] = lit
			}
		}
		return true
	})
}

func (w *hfWalker) clone(st *hfSummary) *hfSummary { c := *st; return &c }

func (w *hfWalker) join(a, b *hfSummary) *hfSummary {
	return &hfSummary{lo: min(a.lo, b.lo), hi: max(a.hi, b.hi)}
}

// exit records a path leaving the function and reports a handler path
// that wrote no status.
func (w *hfWalker) exit(pos token.Pos, st *hfSummary) {
	if w.out == nil {
		w.out = w.clone(st)
	} else {
		w.out = w.join(w.out, st)
	}
	if w.report && st.hi == 0 {
		w.c.pass.Reportf(pos, "handler path writes no response status; every path must reply exactly once")
	}
}

// deferred models a deferred reply as an immediate commit: it runs on every
// path from here on, so the funnel `defer writeReply(...)` is seen.
func (w *hfWalker) deferred(call *ast.CallExpr, st *hfSummary) {
	lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		w.expr(call, st)
		return
	}
	if sm := w.c.walk(w.pkg, lit.Body, false); sm.lo > 0 || sm.hi > 0 {
		w.commit(call.Pos(), "deferred closure", sm, st)
	}
}

// blocking is a no-op: a status write has nothing to do with blocking.
func (w *hfWalker) blocking(token.Pos, string, *hfSummary) {}

func (w *hfWalker) expr(e ast.Expr, st *hfSummary) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs later; bound closures are applied at their call sites
		case *ast.CallExpr:
			w.handleCall(n, st)
		}
		return true
	})
}

// statusCommitters are the net/http helpers that write a response status.
var statusCommitters = map[string]bool{
	"Error": true, "NotFound": true, "Redirect": true,
	"ServeFile": true, "ServeContent": true,
}

func (w *hfWalker) handleCall(call *ast.CallExpr, st *hfSummary) {
	info := w.pkg.Info
	// Direct methods on a ResponseWriter-typed expression (a param or a
	// struct field holding the writer).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if isResponseWriter(info.TypeOf(sel.X)) {
			switch sel.Sel.Name {
			case "WriteHeader":
				w.commit(call.Pos(), "WriteHeader", hfSummary{1, 1}, st)
				return
			case "Write":
				w.bodyWrite(st)
				return
			}
		}
	}
	// Local closure bound to a variable.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			if lit, ok := w.locals[obj]; ok {
				sm := w.c.walk(w.pkg, lit.Body, false)
				w.commit(call.Pos(), id.Name, sm, st)
				return
			}
		}
	}
	fn := calleeFuncIn(info, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "net/http" {
		if statusCommitters[fn.Name()] {
			w.commit(call.Pos(), "http."+fn.Name(), hfSummary{1, 1}, st)
			return
		}
		// MaxBytesReader takes the writer only to flag the connection for
		// closure on overflow; it never writes a status, so it must not
		// trip the conservative writer-argument fallback below.
		if fn.Name() == "MaxBytesReader" {
			return
		}
	}
	// Module helpers: apply their memoized commit interval.
	if node := w.c.pass.Graph.Node(fn); node != nil {
		sm := w.c.summarize(fn)
		if sm.lo > 0 || sm.hi > 0 {
			w.commit(call.Pos(), hotPathFuncLabel(fn), sm, st)
		}
		return
	}
	// External function handed the writer (fmt.Fprintf(w, ...), io.Copy(w,
	// ...), json.NewEncoder(w)...): conservatively a body write.
	for _, a := range call.Args {
		if isResponseWriter(info.TypeOf(a)) {
			w.bodyWrite(st)
			return
		}
	}
}

// commit applies a definite-or-possible status write and reports the
// definite-second-write case.
func (w *hfWalker) commit(pos token.Pos, what string, sm hfSummary, st *hfSummary) {
	if w.report && sm.lo > 0 && st.lo > 0 {
		w.c.pass.Reportf(pos, "%s writes a second response status on this path; the handler already replied", what)
	}
	st.lo = min(st.lo+sm.lo, 2)
	st.hi = min(st.hi+sm.hi, 2)
}

// bodyWrite commits the implicit 200 when nothing was written yet.
func (w *hfWalker) bodyWrite(st *hfSummary) {
	st.lo, st.hi = max(st.lo, 1), max(st.hi, 1)
}
