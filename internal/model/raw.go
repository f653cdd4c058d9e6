package model

import (
	"crypto/sha256"
	"fmt"
	"slices"
)

// RawGraph is the flat form of a task graph, and the only one: every
// scheduling-relevant quantity in dense, task-indexed arrays, per-core
// execution orders in CSR form, and the core→bank assignment as an explicit
// table. Graph embeds it, and it is what the binary wire codec
// (internal/wire) carries and what the compiled engine image adopts as its
// slab, field for field.
//
// Invariants (established by Builder, DecodeJSON and wire.Decode, checked
// by Validate): dense arrays all len == NumTasks, Demand is task-major with
// exactly Banks entries per row, OrderStart is a monotone CSR index with
// OrderStart[Cores] == NumTasks, and BankTable has one entry per core.
// Edges preserve their source order — the canonical fingerprint hashes them
// in sequence, so reordering them would change the graph's identity.
type RawGraph struct {
	Cores int // number of processing elements
	Banks int // number of arbitrated memory banks

	// Per-task scalars, indexed by TaskID. WCET is the worst-case
	// execution time in isolation; MinRelease the minimal release date
	// (Section II.B of the paper: the task never starts earlier, even if
	// its dependencies complete); Core the processing element the task is
	// mapped to; Local the shared-memory accesses it performs on its own
	// behalf, charged to its core's bank.
	WCET       []Cycles
	MinRelease []Cycles
	Core       []CoreID
	Local      []Accesses

	// Demand is the compiled per-bank access demand, task-major: task id's
	// row is Demand[id*Banks : (id+1)*Banks].
	Demand []Accesses

	// Edges in source order (fingerprint-relevant; see above).
	Edges []Edge

	// Per-core execution orders in CSR form: core k's order, the "stack"
	// S_k of Algorithm 1, is OrderIDs[OrderStart[k]:OrderStart[k+1]].
	OrderStart []int32
	OrderIDs   []TaskID

	// BankTable maps each core to the bank holding its reserved data.
	BankTable []BankID
}

// NumTasks returns the number of tasks.
func (r *RawGraph) NumTasks() int { return len(r.WCET) }

// DemandRow returns task id's per-bank demand row: exactly Banks entries.
//
//mia:hotpath
func (r *RawGraph) DemandRow(id TaskID) []Accesses {
	return r.Demand[int(id)*r.Banks : (int(id)+1)*r.Banks]
}

// TotalDemand returns task id's shared-memory accesses summed over all
// banks.
func (r *RawGraph) TotalDemand(id TaskID) Accesses {
	var sum Accesses
	for _, d := range r.DemandRow(id) {
		sum += d
	}
	return sum
}

// Order returns core k's execution order. The slice aliases the order CSR:
// SwapOrder shows through it, and callers must not otherwise mutate it.
//
//mia:hotpath
func (r *RawGraph) Order(k CoreID) []TaskID {
	return r.OrderIDs[r.OrderStart[k]:r.OrderStart[k+1]]
}

// Clone returns a deep copy: no array of the copy aliases r's.
func (r *RawGraph) Clone() *RawGraph {
	return &RawGraph{
		Cores:      r.Cores,
		Banks:      r.Banks,
		WCET:       slices.Clone(r.WCET),
		MinRelease: slices.Clone(r.MinRelease),
		Core:       slices.Clone(r.Core),
		Local:      slices.Clone(r.Local),
		Demand:     slices.Clone(r.Demand),
		Edges:      slices.Clone(r.Edges),
		OrderStart: slices.Clone(r.OrderStart),
		OrderIDs:   slices.Clone(r.OrderIDs),
		BankTable:  slices.Clone(r.BankTable),
	}
}

// Fingerprint returns the canonical content hash of the graph: a
// hex-encoded SHA-256 over the platform shape, every task's
// scheduling-relevant fields (WCET, core, minimal release, local accesses,
// compiled per-bank demand), the dependency edges with their volumes, the
// per-core execution orders, and the core→bank assignment. Two graphs with
// equal fingerprints are indistinguishable to every scheduler in this
// repository — same inputs, same analysis, same Result — which is what
// lets the analysis service key warm scheduler checkpoints and cached
// parsed graphs by fingerprint alone, whichever way a graph was ingested.
//
// Task names are deliberately excluded (they are diagnostics, not inputs),
// as is everything derivable from the hashed fields (adjacency, stats).
func (r *RawGraph) Fingerprint() string {
	w := &digestWriter{h: sha256.New()}
	r.hashStatic(w)
	w.int(int64(r.Cores))
	for k := 0; k < r.Cores; k++ {
		order := r.Order(CoreID(k))
		w.int(int64(len(order)))
		for _, id := range order {
			w.int(int64(id))
		}
	}
	for k := 0; k < r.Cores; k++ {
		w.int(int64(r.BankTable[k]))
	}
	return w.sum()
}

// hashStatic feeds the order-independent prefix of the serialization —
// version, platform shape, tasks, edges. The orders section and the bank
// table follow it, in that order.
func (r *RawGraph) hashStatic(w *digestWriter) {
	w.int(fingerprintVersion)
	w.int(int64(r.Cores))
	w.int(int64(r.Banks))

	n := r.NumTasks()
	w.int(int64(n))
	for i := 0; i < n; i++ {
		w.int(int64(r.WCET[i]))
		w.int(int64(r.Core[i]))
		w.int(int64(r.MinRelease[i]))
		w.int(int64(r.Local[i]))
		w.int(int64(r.Banks)) // row width: rows are always full Banks wide
		for _, d := range r.DemandRow(TaskID(i)) {
			w.int(int64(d))
		}
	}

	w.int(int64(len(r.Edges)))
	for _, e := range r.Edges {
		w.int(int64(e.From))
		w.int(int64(e.To))
		w.int(int64(e.Words))
	}
}

// OrderHasher returns a reusable overlay fingerprinter for this graph:
// engine images hash edited order overlays through it.
func (r *RawGraph) OrderHasher() *OrderHasher {
	//mialint:ignore hotpathalloc -- constructor: the serializer is built once per graph, like the frozen midstate below
	w := &digestWriter{h: sha256.New()}
	r.hashStatic(w)
	//mialint:ignore hotpathalloc -- constructor: freezing the midstate allocates by design; hot paths reach it only through the per-image once-guard
	bank := make([]int64, r.Cores)
	for k := range bank {
		bank[k] = int64(r.BankTable[k])
	}
	return newOrderHasher(w, bank)
}

// shapeError checks the structural container invariants — array lengths
// agree with Cores/Banks/NumTasks and the order CSR is well formed — before
// anything indexes by them. Value-level checks live in Validate.
func (r *RawGraph) shapeError() error {
	n := r.NumTasks()
	if r.Cores < 1 {
		return fmt.Errorf("model: raw graph has %d cores, need at least 1", r.Cores)
	}
	if r.Banks < 1 {
		return fmt.Errorf("model: raw graph has %d banks, need at least 1", r.Banks)
	}
	if len(r.MinRelease) != n || len(r.Core) != n || len(r.Local) != n {
		return fmt.Errorf("model: raw graph per-task arrays disagree on task count")
	}
	if len(r.Demand) != n*r.Banks {
		return fmt.Errorf("model: raw graph demand has %d entries, want %d tasks × %d banks", len(r.Demand), n, r.Banks)
	}
	if len(r.OrderStart) != r.Cores+1 {
		return fmt.Errorf("model: raw graph order CSR has %d offsets for %d cores", len(r.OrderStart), r.Cores)
	}
	if len(r.OrderIDs) != n {
		return fmt.Errorf("model: execution orders list %d tasks, graph has %d", len(r.OrderIDs), n)
	}
	if r.OrderStart[0] != 0 || r.OrderStart[r.Cores] != int32(n) {
		return fmt.Errorf("model: raw graph order CSR does not span 0..%d", n)
	}
	for k := 0; k < r.Cores; k++ {
		if r.OrderStart[k+1] < r.OrderStart[k] {
			return fmt.Errorf("model: raw graph order CSR decreases at core %d", k)
		}
	}
	if len(r.BankTable) != r.Cores {
		return fmt.Errorf("model: raw graph bank table has %d entries for %d cores", len(r.BankTable), r.Cores)
	}
	return nil
}

// Validate checks every structural invariant the schedulers rely on:
//
//   - shape: at least one core and one bank, array lengths agreeing with
//     the task and core counts, a well-formed order CSR;
//   - values: non-negative WCETs, minimal releases, local accesses,
//     demands and edge volumes, none past MaxInput, so accumulated
//     release dates and interference terms cannot overflow int64
//     arithmetic (see MaxInput);
//   - indices: cores, edge endpoints and bank-table entries in range, no
//     self-loops;
//   - the dependency graph is acyclic (TopoSort);
//   - every core's execution order lists exactly the tasks mapped to it,
//     each exactly once, and never orders a task before one of its
//     same-core predecessors (a certain deadlock, rejected here rather
//     than at scheduling time).
//
// Cross-core order/dependency deadlocks (a cycle alternating DAG edges and
// order edges across cores) are NOT rejected here — detecting them is
// exactly what the schedulers' deadlock checks do, and both report
// ErrDeadlock with a diagnostic. Every ingest path (Builder, DecodeJSON,
// ReadJSON, wire.Decode, engine.Compile) runs this one validator.
func (r *RawGraph) Validate() error {
	if err := r.shapeError(); err != nil {
		return err
	}
	n := r.NumTasks()
	for i := 0; i < n; i++ {
		id := TaskID(i)
		switch {
		case r.WCET[i] < 0:
			return fmt.Errorf("model: %s has negative WCET %d", id, r.WCET[i])
		case r.WCET[i] > MaxInput:
			return fmt.Errorf("model: %s has WCET %d exceeding MaxInput %d (overflow guard)", id, r.WCET[i], int64(MaxInput))
		case r.MinRelease[i] < 0:
			return fmt.Errorf("model: %s has negative minimal release %d", id, r.MinRelease[i])
		case r.MinRelease[i] > MaxInput:
			return fmt.Errorf("model: %s has minimal release %d exceeding MaxInput %d (overflow guard)", id, r.MinRelease[i], int64(MaxInput))
		case r.Local[i] < 0:
			return fmt.Errorf("model: %s has negative local access count %d", id, r.Local[i])
		case r.Local[i] > MaxInput:
			return fmt.Errorf("model: %s has local access count %d exceeding MaxInput %d (overflow guard)", id, r.Local[i], int64(MaxInput))
		case r.Core[i] < 0 || int(r.Core[i]) >= r.Cores:
			return fmt.Errorf("model: %s mapped to core %d, platform has %d cores", id, r.Core[i], r.Cores)
		}
		for b, d := range r.DemandRow(id) {
			if d < 0 {
				return fmt.Errorf("model: %s has negative demand %d on %s", id, d, BankID(b))
			}
			if d > MaxInput {
				return fmt.Errorf("model: %s has demand %d on %s exceeding MaxInput %d (overflow guard)", id, d, BankID(b), int64(MaxInput))
			}
		}
	}
	for _, e := range r.Edges {
		switch {
		case e.From < 0 || int(e.From) >= n:
			return fmt.Errorf("model: edge source %d out of range", e.From)
		case e.To < 0 || int(e.To) >= n:
			return fmt.Errorf("model: edge target %d out of range", e.To)
		case e.From == e.To:
			return fmt.Errorf("model: self-dependency on %s", e.From)
		case e.Words < 0:
			return fmt.Errorf("model: edge %s->%s has negative volume %d", e.From, e.To, e.Words)
		case e.Words > MaxInput:
			return fmt.Errorf("model: edge %s->%s has volume %d exceeding MaxInput %d (overflow guard)", e.From, e.To, e.Words, int64(MaxInput))
		}
	}
	for k := 0; k < r.Cores; k++ {
		if r.BankTable[k] < 0 || int(r.BankTable[k]) >= r.Banks {
			return fmt.Errorf("model: core %d assigned bank %d, platform has %d banks", k, r.BankTable[k], r.Banks)
		}
	}
	if _, err := r.TopoSort(); err != nil {
		return err
	}
	return r.validateOrders()
}

// validateOrders checks that every core's order lists only tasks mapped to
// it, none twice, and never contradicts a same-core dependency. With the
// order CSR holding exactly NumTasks entries (shapeError), that makes the
// orders a partition of the tasks by core.
func (r *RawGraph) validateOrders() error {
	n := r.NumTasks()
	position := make([]int, n)
	for i := range position {
		position[i] = -1
	}
	for k := 0; k < r.Cores; k++ {
		for pos, id := range r.Order(CoreID(k)) {
			if id < 0 || int(id) >= n {
				return fmt.Errorf("model: order of core %d references unknown task %d", k, id)
			}
			if r.Core[id] != CoreID(k) {
				return fmt.Errorf("model: order of core %d lists %s, which is mapped to core %d", k, id, r.Core[id])
			}
			if position[id] != -1 {
				return fmt.Errorf("model: %s appears twice in execution orders", id)
			}
			position[id] = pos
		}
	}
	for _, e := range r.Edges {
		if r.Core[e.From] == r.Core[e.To] && position[e.To] < position[e.From] {
			return fmt.Errorf("model: core %d orders %s before its predecessor %s (certain deadlock)",
				r.Core[e.From], e.To, e.From)
		}
	}
	return nil
}
