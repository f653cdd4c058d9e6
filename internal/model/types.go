// Package model defines the task-graph substrate shared by every analysis in
// this repository: tasks with worst-case execution times and per-bank memory
// demands, a dependency DAG whose edges carry communication volumes, a static
// mapping of tasks onto cores, and a fixed execution order per core.
//
// The model corresponds to the input of the scheduling problem in Section II
// of "Scaling Up the Memory Interference Analysis for Hard Real-Time
// Many-Core Systems" (DATE 2020): a DAG obtained by compiling a dataflow
// program, annotated with WCETs in isolation and memory-access counts, plus a
// previously determined mapping and per-core execution order.
package model

import "fmt"

// Cycles counts time in processor clock cycles. All analyses in this module
// are integer and deterministic; there is no floating-point time.
type Cycles int64

// Infinity is a sentinel Cycles value larger than any schedulable horizon.
// It is used for "no deadline" and for the time cursor's initial next-event
// computation.
const Infinity Cycles = 1<<62 - 1

// MaxInput bounds every externally supplied magnitude: WCETs, minimal
// releases, per-bank demands and edge volumes. JSON cannot carry NaN or
// ±Inf, so the overflow risk for the int64-based Cycles/Accesses arithmetic
// is huge-but-finite inputs: release dates accumulate sums of WCETs,
// interference and demand terms over up to 2^20 tasks, and those sums must
// stay clearly below Infinity (2^62). 2^40 per field keeps any such sum
// under 2^60 while still allowing hour-long WCETs on a multi-GHz clock.
const MaxInput = 1 << 40

// Shape limits shared by every decoder of untrusted graphs (DecodeJSON,
// ReadJSON, the wire codec and the STG reader). A declared count sizes
// allocations before any per-element data backs it, so each limit is
// checked before the first allocation it would size.
const (
	// MaxTasks bounds the task count: the 2^20 tasks MaxInput's overflow
	// budget is computed for.
	MaxTasks = 1 << 20
	// MaxCores and MaxBanks bound the platform shape. A platform wider
	// than any workload it could carry is meaningless here, and per-core
	// and per-bank tables are allocated from these counts alone.
	MaxCores = 1 << 16
	MaxBanks = 1 << 16
	// MaxDemandCells bounds tasks × banks, the size of the compiled demand
	// matrix: 2^24 cells (128 MiB of int64), 32× the largest graph the
	// repository's generators and sweeps build (32,768 tasks × 16 banks).
	// Without it a few kilobytes of tasks on a 2^16-bank platform would
	// allocate gigabytes.
	MaxDemandCells = 1 << 24
)

// TaskID identifies a task within a Graph. IDs are dense: a graph with n
// tasks uses IDs 0..n-1, so slices indexed by TaskID are the preferred
// per-task storage in the schedulers.
type TaskID int

// NoTask is the invalid TaskID.
const NoTask TaskID = -1

// CoreID identifies a processing element (PE) of the platform.
type CoreID int

// BankID identifies an arbitrated shared-memory bank.
type BankID int

// Accesses counts shared-memory accesses (words read or written). One access
// occupies the bank for the platform's word latency.
type Accesses int64

// String renders a TaskID as "τ<n>" for diagnostics.
func (id TaskID) String() string {
	if id == NoTask {
		return "τ?"
	}
	return fmt.Sprintf("τ%d", int(id))
}

// String renders a CoreID as "PE<n>", matching the paper's figures.
func (c CoreID) String() string { return fmt.Sprintf("PE%d", int(c)) }

// String renders a BankID as "bank<n>".
func (b BankID) String() string { return fmt.Sprintf("bank%d", int(b)) }
