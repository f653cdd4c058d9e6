package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// flowHooks is what a path-sensitive analyzer supplies to flowWalker: how
// to copy and join its abstract state S, and what the state undergoes at
// each kind of program point. S is a pointer type; the hooks other than
// clone and join update the state they are given in place.
type flowHooks[S any] interface {
	// clone copies a state for one arm of a branch.
	clone(st S) S
	// join merges the states of two paths that meet; it returns a new state.
	join(a, b S) S
	// expr interprets an expression evaluated on the path. e may be nil.
	expr(e ast.Expr, st S)
	// deferred interprets the call of a defer statement.
	deferred(call *ast.CallExpr, st S)
	// exit sees a path leave the function at a return statement, after
	// the returned expressions were evaluated.
	exit(pos token.Pos, st S)
	// blocking sees a statement that can park the goroutine: a channel
	// send, a range over a channel, or a select without a default clause.
	blocking(pos token.Pos, what string, st S)
}

// flowWalker interprets a function body statement by statement, carrying
// one abstract state per path. locksafe and handlerflow are analyzers over
// it; they differ only in their hooks.
//
// The walk is path-sensitive-lite. Each arm of an if, switch or select
// runs on a clone of the state before it, and the arms that fall out of
// the statement are joined. A loop body runs once, on a clone, and is
// joined with the state before the loop, since the loop may run zero
// times. A switch without a default clause joins the state before it too,
// since no case may match. return, break, continue and goto end a path,
// and so does an if whose arms all end theirs; after a switch or select
// whose clauses all end theirs, the path goes on with the state before it.
//
// Expressions are evaluated where Go evaluates them: an assignment's
// right-hand sides, then its left-hand sides (an index or a call inside a
// target runs too); a switch's init and tag, or a type switch's init and
// assign statement, before any clause; and each case clause's expressions
// on that clause's arm, before its body. A select's communication clauses
// are not interpreted: their blocking is the select's own. Function
// literal bodies run later, so the hooks skip them.
type flowWalker[S any] struct {
	info  *types.Info
	hooks flowHooks[S]
}

// stmts interprets a statement list from st. It returns the state at the
// end of the list, or where a statement ended the path, and whether one
// did.
func (w flowWalker[S]) stmts(list []ast.Stmt, st S) (S, bool) {
	for _, s := range list {
		var ended bool
		if st, ended = w.stmt(s, st); ended {
			return st, true
		}
	}
	return st, false
}

func (w flowWalker[S]) exprs(list []ast.Expr, st S) {
	for _, e := range list {
		w.hooks.expr(e, st)
	}
}

// stmt interprets one statement, which may be nil (an absent init or post
// statement), and reports whether it ended the path.
func (w flowWalker[S]) stmt(s ast.Stmt, st S) (S, bool) {
	h := w.hooks
	switch s := s.(type) {
	case *ast.ExprStmt:
		h.expr(s.X, st)
	case *ast.SendStmt:
		h.expr(s.Chan, st)
		h.expr(s.Value, st)
		h.blocking(s.Arrow, "channel send", st)
	case *ast.AssignStmt:
		w.exprs(s.Rhs, st)
		w.exprs(s.Lhs, st)
	case *ast.IncDecStmt:
		h.expr(s.X, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(vs.Values, st)
				}
			}
		}
	case *ast.DeferStmt:
		h.deferred(s.Call, st)
	case *ast.GoStmt:
		// The arguments evaluate on this path; the spawned body does not
		// (goroleak owns it).
		w.exprs(s.Call.Args, st)
	case *ast.ReturnStmt:
		w.exprs(s.Results, st)
		h.exit(s.Pos(), st)
		return st, true
	case *ast.BranchStmt:
		// break, continue and goto leave the linear path; ending it keeps
		// the states they carry out of a misleading join.
		return st, true
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.IfStmt:
		st, _ = w.stmt(s.Init, st)
		h.expr(s.Cond, st)
		then, thenEnded := w.stmts(s.Body.List, h.clone(st))
		els, elseEnded := h.clone(st), false
		if s.Else != nil {
			els, elseEnded = w.stmt(s.Else, els)
		}
		switch {
		case thenEnded && elseEnded:
			return st, true
		case thenEnded:
			return els, false
		case elseEnded:
			return then, false
		}
		return h.join(then, els), false
	case *ast.ForStmt:
		st, _ = w.stmt(s.Init, st)
		h.expr(s.Cond, st)
		body, _ := w.stmts(s.Body.List, h.clone(st))
		body, _ = w.stmt(s.Post, body)
		return h.join(st, body), false
	case *ast.RangeStmt:
		h.expr(s.X, st)
		if t := w.info.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				h.blocking(s.Range, "range over a channel", st)
			}
		}
		body, _ := w.stmts(s.Body.List, h.clone(st))
		return h.join(st, body), false
	case *ast.SelectStmt:
		if !hasDefault(s.Body) {
			h.blocking(s.Select, "blocking select", st)
		}
		return w.clauses(s.Body, st, false), false
	case *ast.SwitchStmt:
		st, _ = w.stmt(s.Init, st)
		h.expr(s.Tag, st)
		return w.clauses(s.Body, st, !hasDefault(s.Body)), false
	case *ast.TypeSwitchStmt:
		st, _ = w.stmt(s.Init, st)
		st, _ = w.stmt(s.Assign, st)
		return w.clauses(s.Body, st, !hasDefault(s.Body)), false
	}
	return st, false
}

// clauses interprets each clause of a switch or select on its own clone of
// st and joins the clauses that fall out of the statement, plus st itself
// when fallThrough says no clause may run. When no path survives, st
// stands.
func (w flowWalker[S]) clauses(body *ast.BlockStmt, st S, fallThrough bool) S {
	var arms []S
	if fallThrough {
		arms = append(arms, st)
	}
	for _, c := range body.List {
		arm := w.hooks.clone(st)
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			w.exprs(c.List, arm)
			list = c.Body
		case *ast.CommClause:
			list = c.Body
		}
		if arm, ended := w.stmts(list, arm); !ended {
			arms = append(arms, arm)
		}
	}
	if len(arms) == 0 {
		return st
	}
	out := arms[0]
	for _, arm := range arms[1:] {
		out = w.hooks.join(out, arm)
	}
	return out
}

// hasDefault reports whether a switch or select body has a default clause.
func hasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				return true
			}
		case *ast.CommClause:
			if c.Comm == nil {
				return true
			}
		}
	}
	return false
}
