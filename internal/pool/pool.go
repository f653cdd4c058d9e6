// Package pool provides the bounded, deterministic worker pool behind the
// repository's parallel sweeps: the benchmark harness fans (family, size,
// algorithm) points out over it, and the Pareto search evaluates each
// generation's candidates concurrently.
//
// The pool's contract is what makes parallelism safe to expose in tools
// whose output is diffed byte-for-byte in tests:
//
//   - Deterministic ordering: results are indexed by submission order, never
//     completion order. Map(ctx, 8, n, f) fills results[i] with f(ctx, i) no
//     matter which worker ran it or when it finished.
//   - Bounded concurrency: at most jobs tasks run at once; jobs ≤ 1 degrades
//     to a plain sequential loop in the calling goroutine, so "-jobs 1" is
//     not merely equivalent to the serial code path — it is the serial code
//     path.
//   - Context cancellation: once ctx is canceled, unstarted tasks are never
//     launched and Map returns ctx.Err(). Tasks already running are expected
//     to honor ctx themselves (every analysis run polls its ctx).
//   - Error and panic transparency: the first task error (in submission
//     order, not completion order) is returned after all started tasks have
//     drained; a panicking task re-panics in the caller's goroutine with the
//     original value, so a crash is never silently swallowed by a worker.
//
// The analysis itself stays single-threaded per instance — the incremental
// scheduler's time cursor is inherently sequential — so the pool only ever
// parallelizes across independent instances (sweep points, search
// candidates, lint packages), which is exactly the granularity where
// determinism can be preserved.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Jobs normalizes a user-supplied -jobs value: values below 1 select
// sequential execution, and 0 is offered to flags as "auto" meaning
// runtime.NumCPU.
func Jobs(n int) int {
	if n == 0 {
		return runtime.NumCPU()
	}
	if n < 1 {
		return 1
	}
	return n
}

// panicError carries a recovered panic value from a worker to the submitting
// goroutine, where it is re-raised.
type panicError struct {
	value any
	stack []byte
}

func (p *panicError) Error() string {
	//mialint:ignore hotpathalloc -- formats a worker panic after the sweep has already failed
	return fmt.Sprintf("pool: task panicked: %v", p.value)
}

// Map runs f(ctx, i) for i in [0, n) on at most jobs concurrent workers and
// returns the results indexed by i (submission order). A task error does not
// stop the sweep — the remaining tasks still run, and the first error by
// index is returned once everything finishes (cancel ctx from inside f for
// fail-fast). When ctx is canceled, unstarted tasks are never launched and
// ctx.Err() is returned unless a task error takes precedence — even when the
// cancellation arrives after every index was handed out, so a canceled sweep
// is never reported as complete. A panic in any task is re-raised in the
// caller's goroutine.
func Map[T any](ctx context.Context, jobs, n int, f func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return mapIndexed(ctx, jobs, n, func(_, i int) (T, error) {
		return safeCall(ctx, i, f)
	})
}

// MapWith is Map with per-worker mutable state: worker w (of the
// len(states) workers) passes states[w] to every task it executes. Each
// state is owned by exactly one goroutine for the duration of the call, so
// tasks may mutate it freely without synchronization — the idiom behind
// allocation-frugal sweeps where each worker reuses one scratch graph or one
// warm scheduler instead of cloning per task. Which state executes which
// index is scheduling-dependent; determinism therefore requires f's result
// to not depend on the state it ran with (e.g. every state is a clone of the
// same graph), which is exactly the contract the Pareto search's
// cross-jobs byte-identity tests pin down. len(states) plays the role of
// jobs: one state means sequential execution in the calling goroutine.
// MapWith panics if states is empty and n > 0.
func MapWith[S, T any](ctx context.Context, states []S, n int, f func(ctx context.Context, st S, i int) (T, error)) ([]T, error) {
	if len(states) == 0 && n > 0 {
		panic("pool: MapWith needs at least one worker state")
	}
	return mapIndexed(ctx, len(states), n, func(w, i int) (T, error) {
		return safeCallWith(ctx, states[w], i, f)
	})
}

// mapIndexed is the shared engine of Map and MapWith: it distributes indexes
// [0, n) over min(jobs, n) workers, records results and errors by submission
// index, and hands each execution its worker number.
func mapIndexed[T any](ctx context.Context, jobs, n int, call func(w, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}
	errs := make([]error, n)
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return results, firstError(errs, err)
			}
			results[i], errs[i] = call(0, i)
		}
		// ctx.Err() rather than nil: a cancellation during the final task
		// tears that task down (it polls ctx) without any index left for the
		// loop check above to refuse, and a canceled sweep must never be
		// reported as complete.
		return results, firstError(errs, ctx.Err())
	}

	indexes := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range indexes {
				results[i], errs[i] = call(w, i)
			}
		}(w)
	}
	var ctxErr error
feed:
	for i := 0; i < n; i++ {
		if ctxErr = ctx.Err(); ctxErr != nil {
			break // prompt even when a worker is ready to receive
		}
		select {
		case indexes <- i:
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break feed
		}
	}
	close(indexes)
	wg.Wait()
	if ctxErr == nil {
		// The feeder can hand out the last index in the same instant the
		// context is canceled (the select picks the ready send): every task
		// was launched, yet the in-flight ones were torn down by the
		// cancellation. Re-check so a canceled sweep is never reported as
		// complete.
		ctxErr = ctx.Err()
	}
	return results, firstError(errs, ctxErr)
}

// safeCall invokes f, converting a panic into a panicError so that exactly
// one goroutine (the caller of Map) re-raises it.
func safeCall[T any](ctx context.Context, i int, f func(ctx context.Context, i int) (T, error)) (result T, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8192)
			err = &panicError{value: r, stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	return f(ctx, i)
}

// safeCallWith is safeCall for per-worker-state tasks.
func safeCallWith[S, T any](ctx context.Context, st S, i int, f func(ctx context.Context, st S, i int) (T, error)) (result T, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8192)
			err = &panicError{value: r, stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	return f(ctx, st, i)
}

// firstError picks the lowest-index task error, re-raising captured panics;
// fallback (typically ctx.Err()) applies only when no task failed.
func firstError(errs []error, fallback error) error {
	for _, err := range errs {
		if err == nil {
			continue
		}
		if pe, ok := err.(*panicError); ok {
			panic(fmt.Sprintf("%v\n\nworker stack:\n%s", pe.value, pe.stack))
		}
		return err
	}
	return fallback
}
