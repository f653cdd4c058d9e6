// Package sched defines the common vocabulary of the interference analyses
// in this repository: the problem options, the schedule result
// (release dates Θ and response times R), unschedulability errors, the
// shared interference computation over execution windows, an independent
// invariant checker, and an ASCII Gantt renderer in the style of the
// paper's Figure 1.
//
// The actual algorithms live in three packages, which register themselves
// as engine backends:
//
//   - sched/incremental — the paper's contribution, the O(n²) time-cursor
//     algorithm (Algorithm 1);
//   - sched/fixpoint — the O(n⁴) double fixed-point baseline of Rihani et
//     al. (RTNS 2016) that the paper improves upon;
//   - internal/rta — a window-free compositional bound, the cheap and
//     pessimistic schedulability screen that dominates the incremental
//     schedule.
//
// All three are reached the same way: engine.Compile folds a graph and its
// Options into an image, and Engine.Analyze(ctx, img) runs a backend on
// it, producing the same Result type. The integration tests cross-validate
// the two schedulers, and the engine tests check that the rta bound
// dominates the incremental one.
package sched

import (
	"errors"
	"fmt"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/model"
)

// Options parameterizes a scheduling run; engine.Compile folds them into
// the image every run of that image uses. The zero value asks for a flat
// round-robin bus with single-cycle service, no deadline, and the paper's
// same-core competitor merging. Options carry no cancellation: a run is
// canceled through the ctx passed to Engine.Analyze or to a Warm method.
type Options struct {
	// Arbiter is the bus-arbitration policy (IBUS). Nil selects flat
	// round-robin with WordLatency 1. Wrapping it in arbiter.NonAdditive
	// forces the incremental scheduler onto its uncached reference path,
	// the differential-testing oracle of the additive fast path.
	Arbiter arbiter.Arbiter

	// Deadline aborts the analysis as unschedulable when the schedule
	// horizon passes it. Zero means no deadline.
	Deadline model.Cycles

	// SeparateCompetitors disables the paper's Section II.C hypothesis of
	// merging same-core interferers into a single big task, treating every
	// interfering task as its own competitor instead. Merging is the
	// default because the paper reports it to be *less* pessimistic; this
	// flag exists for the ablation experiment quantifying that claim.
	SeparateCompetitors bool

	// Trace, when non-nil, receives the incremental scheduler's event
	// stream (cursor advances, openings, closings, interference updates) —
	// the data behind the paper's Figure 2 snapshot. It is ignored by the
	// fixed-point baseline, which has no cursor.
	Trace func(Event)

	// Parallelism is ignored; every analysis runs on one goroutine. It is
	// kept only because the benchmark module sets it.
	Parallelism int
}

// EffectiveArbiter resolves the arbitration policy, applying the default.
func (o Options) EffectiveArbiter() arbiter.Arbiter {
	if o.Arbiter == nil {
		return arbiter.NewRoundRobin(1)
	}
	return o.Arbiter
}

// EffectiveDeadline resolves the deadline, mapping "none" to Infinity.
func (o Options) EffectiveDeadline() model.Cycles {
	if o.Deadline <= 0 {
		return model.Infinity
	}
	return o.Deadline
}

// EventKind classifies incremental-scheduler trace events.
type EventKind int

const (
	// EventCursor reports the time cursor jumping to Event.Time.
	EventCursor EventKind = iota
	// EventOpen reports Event.Task being released at Event.Time.
	EventOpen
	// EventClose reports Event.Task finishing at Event.Time.
	EventClose
	// EventInterference reports Event.Task's total interference growing to
	// Event.Value at time Event.Time.
	EventInterference
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventCursor:
		return "cursor"
	case EventOpen:
		return "open"
	case EventClose:
		return "close"
	case EventInterference:
		return "interference"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one step of the incremental scheduler's execution, exposed for
// tracing and for the Figure 2 cursor-walkthrough example.
type Event struct {
	Kind  EventKind
	Time  model.Cycles
	Task  model.TaskID // NoTask for EventCursor
	Value model.Cycles // interference total for EventInterference
}

// String renders a compact trace line.
func (e Event) String() string {
	switch e.Kind {
	case EventCursor:
		return fmt.Sprintf("t=%-6d cursor", e.Time)
	case EventInterference:
		return fmt.Sprintf("t=%-6d %s %s I=%d", e.Time, e.Kind, e.Task, e.Value)
	default:
		return fmt.Sprintf("t=%-6d %s %s", e.Time, e.Kind, e.Task)
	}
}

// ErrUnschedulable is the sentinel wrapped by every scheduling failure, so
// callers can test errors.Is(err, sched.ErrUnschedulable).
var ErrUnschedulable = errors.New("unschedulable")

// ErrCanceled reports an analysis aborted because its context was done. It
// is a measurement artifact (timeout), not a schedulability verdict.
var ErrCanceled = errors.New("analysis canceled")

// UnschedulableError reports why and when an analysis gave up.
type UnschedulableError struct {
	// Reason is "deadline" or "deadlock".
	Reason string
	// Time is the analysis horizon at failure.
	Time model.Cycles
	// Task names an involved task when known (the first blocked task for
	// deadlocks), NoTask otherwise.
	Task model.TaskID
}

// Error implements error.
func (e *UnschedulableError) Error() string {
	if e.Task != model.NoTask {
		//mialint:ignore hotpathalloc -- error formatting runs only after the analysis has already failed
		return fmt.Sprintf("unschedulable: %s at t=%d (task %s)", e.Reason, e.Time, e.Task)
	}
	//mialint:ignore hotpathalloc -- error formatting runs only after the analysis has already failed
	return fmt.Sprintf("unschedulable: %s at t=%d", e.Reason, e.Time)
}

// Unwrap makes errors.Is(err, ErrUnschedulable) true.
func (e *UnschedulableError) Unwrap() error { return ErrUnschedulable }

// DeadlineExceeded builds the deadline-crossed failure.
func DeadlineExceeded(t model.Cycles) error {
	//mialint:ignore hotpathalloc -- termination path: an unschedulable verdict ends the run and the error carries per-call time context
	return &UnschedulableError{Reason: "deadline", Time: t, Task: model.NoTask}
}

// Deadlock builds the dependency/order-deadlock failure.
func Deadlock(t model.Cycles, task model.TaskID) error {
	//mialint:ignore hotpathalloc -- termination path: an unschedulable verdict ends the run and the error carries per-call (time, task) context
	return &UnschedulableError{Reason: "deadlock", Time: t, Task: task}
}
