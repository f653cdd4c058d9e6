package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// LockSafe checks sync.Mutex / sync.RWMutex discipline by abstract
// interpretation of each function body. Three invariant classes:
//
//  1. A lock acquired and released non-deferred must be released on *every*
//     return path — the early-return-while-held bug that -race only catches
//     when the two racing requests actually collide in a test run.
//  2. No path may lock a mutex it already holds (write-after-write or
//     write-after-read upgrade): self-deadlock.
//  3. No blocking operation — channel send/receive, select without default,
//     range over a channel, WaitGroup/Cond Wait, net/http round trips —
//     while any lock is held: the serving tier's tail latency budget does
//     not include waiting on a channel inside a critical section.
//
// The interpretation is flowWalker's (flow.go): branches are analyzed with
// cloned states and merged by taking the minimum held count, so a lock
// acquired only on one arm does not leak a false "still held" into the
// join. A function that locks and never unlocks anywhere (a lock-helper
// whose caller owns the release) is deliberately not flagged by rule 1; the
// analyzer only enforces release on functions that do release somewhere,
// i.e. where the contract is visibly intraprocedural.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "enforce lock release on all return paths, no double-lock, no blocking while locked",
	Run:  runLockSafe,
}

func runLockSafe(p *Pass) error {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockSafe(p, fd)
		}
	}
	return nil
}

// lockState is the abstract state at one program point: how many times each
// lock key is held, and how many releases are scheduled via defer.
type lockState struct {
	held     map[string]int
	deferred map[string]int
}

func newLockState() *lockState {
	return &lockState{held: map[string]int{}, deferred: map[string]int{}}
}

// anyHeld returns the lexicographically first held key, so blocking-while-
// locked diagnostics are deterministic when several locks are held.
func (s *lockState) anyHeld() (string, bool) {
	var keys []string
	for k, v := range s.held {
		if v > 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return "", false
	}
	sort.Strings(keys)
	return keys[0], true
}

// lockWalker carries one function's analysis.
type lockWalker struct {
	pass *Pass
	info *types.Info
	// releases holds the keys the body visibly releases outside defers; rule
	// 1 (released on every return path) applies only to those.
	releases map[string]bool
}

func checkLockSafe(p *Pass, fd *ast.FuncDecl) {
	w := &lockWalker{pass: p, info: p.Pkg.Info, releases: map[string]bool{}}
	// Pre-scan for non-deferred releases; defer bodies and nested goroutines
	// release on someone else's schedule.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt, *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if key, op, ok := w.mutexOp(n); ok && (op == "Unlock" || op == "RUnlock") {
				w.releases[key] = true
			}
		}
		return true
	})

	flow := flowWalker[*lockState]{info: w.info, hooks: w}
	if st, ended := flow.stmts(fd.Body.List, newLockState()); !ended {
		w.checkRelease(fd.Body.Rbrace, st, "when the function returns")
	}
}

func (w *lockWalker) clone(st *lockState) *lockState {
	return &lockState{held: maps.Clone(st.held), deferred: maps.Clone(st.deferred)}
}

// join merges two paths by minimum held count: a lock held on only one
// arm is treated as released at the join, which stays quiet on
// correlated-condition code at the cost of missing some conditional leaks
// (those still surface at returns *inside* the holding arm).
func (w *lockWalker) join(a, b *lockState) *lockState {
	return &lockState{held: minCounts(a.held, b.held), deferred: minCounts(a.deferred, b.deferred)}
}

// minCounts keeps the keys counted above zero in both a and b, at the
// smaller count.
func minCounts(a, b map[string]int) map[string]int {
	m := map[string]int{}
	for k, v := range a {
		if v = min(v, b[k]); v > 0 {
			m[k] = v
		}
	}
	return m
}

func (w *lockWalker) exit(pos token.Pos, st *lockState) {
	w.checkRelease(pos, st, "on this return path")
}

// expr inspects an expression in evaluation context: lock operations,
// channel receives, and blocking calls. Function literal bodies are skipped —
// they execute later, on their own path.
func (w *lockWalker) expr(e ast.Expr, st *lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.blocking(n.Pos(), "channel receive", st)
			}
		case *ast.CallExpr:
			w.handleCall(n, st)
		}
		return true
	})
}

func (w *lockWalker) handleCall(call *ast.CallExpr, st *lockState) {
	if key, op, ok := w.mutexOp(call); ok {
		readKey := key + " (read)"
		switch op {
		case "Lock":
			if st.held[key] > 0 {
				w.pass.Reportf(call.Pos(), "%s locked again while already held on this path; self-deadlock", key)
			} else if st.held[readKey] > 0 {
				w.pass.Reportf(call.Pos(), "%s write-locked while read lock is held on this path; upgrade self-deadlocks", key)
			}
			st.held[key]++
		case "RLock":
			if st.held[key] > 0 {
				w.pass.Reportf(call.Pos(), "%s read-locked while write lock is held on this path; self-deadlock", key)
			}
			st.held[readKey]++
		case "Unlock":
			if st.held[key] > 0 {
				st.held[key]--
			}
		case "RUnlock":
			if st.held[readKey] > 0 {
				st.held[readKey]--
			}
		}
		return
	}
	if what, ok := w.blockingCall(call); ok {
		w.blocking(call.Pos(), what, st)
	}
}

// deferred accounts defer-scheduled unlocks: `defer mu.Unlock()` and the
// `defer func() { ...; mu.Unlock() }()` wrapper form.
func (w *lockWalker) deferred(call *ast.CallExpr, st *lockState) {
	if key, op, ok := w.mutexOp(call); ok && (op == "Unlock" || op == "RUnlock") {
		if op == "RUnlock" {
			key += " (read)"
		}
		st.deferred[key]++
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok {
				if key, op, ok := w.mutexOp(inner); ok && (op == "Unlock" || op == "RUnlock") {
					if op == "RUnlock" {
						key += " (read)"
					}
					st.deferred[key]++
				}
			}
			return true
		})
	}
}

// checkRelease reports every key that is held past its deferred releases at
// a function exit — but only for keys the body releases non-deferred
// somewhere (w.releases): a pure lock-helper hands the release to its
// caller by design.
func (w *lockWalker) checkRelease(pos token.Pos, st *lockState, where string) {
	var leaked []string
	for k, v := range st.held {
		base := k
		if len(k) > 7 && k[len(k)-7:] == " (read)" {
			base = k[:len(k)-7]
		}
		if v > st.deferred[k] && w.releases[base] {
			leaked = append(leaked, k)
		}
	}
	sort.Strings(leaked)
	for _, k := range leaked {
		w.pass.Reportf(pos, "%s is still held %s; unlock before returning or defer the unlock", k, where)
	}
}

func (w *lockWalker) blocking(pos token.Pos, what string, st *lockState) {
	if k, ok := st.anyHeld(); ok {
		w.pass.Reportf(pos, "%s while %s is held; blocking inside a critical section stalls every other acquirer", what, k)
	}
}

// mutexOp matches calls of Lock/Unlock/RLock/RUnlock on a sync.Mutex or
// sync.RWMutex (directly or via pointer) and returns the rendered receiver
// expression as the lock key.
func (w *lockWalker) mutexOp(call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	// Resolve through the method object rather than the receiver expression's
	// type so embedded mutexes (`type S struct{ sync.Mutex }; s.Lock()`)
	// match too.
	fn, isFn := w.info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch recvTypeName(fn) {
	case "Mutex", "RWMutex":
		return types.ExprString(sel.X), sel.Sel.Name, true
	}
	return "", "", false
}

// blockingCall classifies calls that park the goroutine: WaitGroup/Cond
// waits and net/http round trips.
func (w *lockWalker) blockingCall(call *ast.CallExpr) (string, bool) {
	fn := calleeFuncIn(w.info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "sync":
		if fn.Name() == "Wait" {
			if recv := recvTypeName(fn); recv == "WaitGroup" || recv == "Cond" {
				return "sync." + recv + ".Wait", true
			}
		}
	case "net/http":
		switch fn.Name() {
		case "Get", "Head", "Post", "PostForm", "Do":
			return "net/http round trip", true
		}
	}
	return "", false
}

// recvTypeName returns the bare name of a method's receiver type, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
