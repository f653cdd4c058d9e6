// Package lint is the repository's domain-specific static-analysis suite:
// seven analyzers that mechanically enforce the invariants the differential
// and AllocsPerRun test suites can only observe after a regression has
// landed. Each analyzer guards one load-bearing property of the
// reproduction:
//
//   - determinism: the analysis-core packages (internal/model,
//     internal/sched and its children, internal/arbiter, internal/rta) must
//     be bit-deterministic — the warm-vs-cold "identical bytes" guarantee of
//     the incremental scheduler dies silently on a wall-clock read, an
//     unseeded random draw, or an unordered map iteration that feeds
//     output, accumulation, or a scheduling decision.
//
//   - hotpathalloc: functions annotated //mia:hotpath (the incremental
//     scheduler's steady state, pinned at 0 allocs/op by AllocsPerRun
//     guards) must not contain allocating constructs: fmt calls, make/new,
//     escaping composite literals, non-reuse append forms, closures,
//     string building, and implicit interface boxing.
//
//   - ctxflow: context.Context must flow first-parameter-first through
//     every long-running API, context.Background/TODO are banned outside
//     package main and tests (libraries must accept, not invent, their
//     context), and `go` statements must be visibly joined (WaitGroup or
//     channel) so goroutine leaks cannot hide.
//
//   - boundedinput: arithmetic that multiplies two runtime model
//     quantities (model.Cycles, model.Accesses) outside internal/model's
//     MaxInput-checked validation helpers risks int64 overflow and is
//     flagged, extending the 2^40 input bound from validation time to
//     review time.
//
//   - locksafe, handlerflow and goroleak: the serving tier's concurrency
//     contracts (a lock released on every return path and never held
//     while blocking, exactly one response status per handler path, every
//     goroutine visibly joined), made interprocedural by the module call
//     graph (callgraph.go).
//
// locksafe and handlerflow are two sets of hooks over one path-sensitive
// statement walker, flowWalker (flow.go). Where Go evaluates an expression,
// the walker hands it to both: an assignment's left-hand sides after its
// right-hand sides, a type switch's assign statement before its clauses,
// and each case clause's expressions on that clause's arm before its body.
// Run analyzes packages on a pool.Map of any size; the output is the same
// bytes at every job count.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic, a go-list-driven loader) but is built purely on the standard
// library so the module stays dependency-free; the CLI front-end lives in
// cmd/mialint and `make lint` runs it over the whole module.
//
// Every analyzer honors the escape hatch
//
//	//mialint:ignore <analyzer>[,<analyzer>...] -- <reason>
//
// which suppresses matching diagnostics on its own line and the line
// directly below it. The reason is mandatory: an ignore without one is
// itself reported, so every suppression documents the argument for why the
// invariant holds anyway.
package lint
