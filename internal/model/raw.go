package model

import (
	"crypto/sha256"
	"fmt"
)

// RawGraph is the flattened, demand-compiled form of a Graph: every
// scheduling-relevant quantity in dense, task-indexed arrays, per-core
// execution orders in CSR form, and the core→bank assignment as an explicit
// table instead of a function. It is the exchange format between the graph
// layer and the flat consumers of the repository — the binary wire codec
// (internal/wire) and the compiled engine image, whose slab layout it
// mirrors field for field — so a decoded RawGraph can be adopted by an
// image with plain copies, no per-task object graph in between.
//
// Invariants (established by (*Graph).Raw and by wire.Decode, checked by
// Validate): dense arrays all len == NumTasks, Demand is task-major with
// exactly Banks entries per row, OrderStart is a monotone CSR index with
// OrderStart[Cores] == NumTasks, and BankTable has one entry per core.
// Edges preserve their source order — the canonical fingerprint hashes them
// in sequence, so reordering them would change the graph's identity.
type RawGraph struct {
	Cores int
	Banks int

	// Per-task scalars, indexed by TaskID.
	WCET       []Cycles
	MinRelease []Cycles
	Core       []CoreID
	Local      []Accesses

	// Demand is the compiled per-bank access demand, task-major: task id's
	// row is Demand[id*Banks : (id+1)*Banks].
	Demand []Accesses

	// Edges in source order (fingerprint-relevant; see above).
	Edges []Edge

	// Per-core execution orders in CSR form: core k's order is
	// OrderIDs[OrderStart[k]:OrderStart[k+1]].
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

// Order returns core k's execution order.
//
//mia:hotpath
func (r *RawGraph) Order(k CoreID) []TaskID {
	return r.OrderIDs[r.OrderStart[k]:r.OrderStart[k+1]]
}

// Fingerprint returns the canonical content hash of the flattened graph,
// byte-identical to Graph.Fingerprint on the graph it was flattened from
// (provided that graph's demand rows were compiled to full Banks width, as
// every ingestion path in this repository guarantees). The serialization is
// the one documented on Graph.Fingerprint; keeping the two in lockstep is
// what lets a wire-ingested image share warm-analyzer cache keys with a
// JSON-ingested one.
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

// hashStatic feeds the order-independent prefix — version, platform shape,
// tasks, edges — matching the same sections of Graph.Fingerprint byte for
// byte. The orders section and the bank table follow it, in that order.
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

// Raw flattens the graph into its RawGraph form. Demand rows are
// zero-extended to exactly Banks entries; every ingestion path in this
// repository compiles demands to full width before a RawGraph is taken, so
// the extension is a no-op there and the flattened fingerprint matches the
// graph's.
func (g *Graph) Raw() *RawGraph {
	n := len(g.tasks)
	r := &RawGraph{
		Cores:      g.Cores,
		Banks:      g.Banks,
		WCET:       make([]Cycles, n),
		MinRelease: make([]Cycles, n),
		Core:       make([]CoreID, n),
		Local:      make([]Accesses, n),
		Demand:     make([]Accesses, n*g.Banks),
		Edges:      append([]Edge(nil), g.edges...),
		OrderStart: make([]int32, g.Cores+1),
		OrderIDs:   make([]TaskID, 0, n),
		BankTable:  make([]BankID, g.Cores),
	}
	for i, t := range g.tasks {
		r.WCET[i] = t.WCET
		r.MinRelease[i] = t.MinRelease
		r.Core[i] = t.Core
		r.Local[i] = t.Local
		copy(r.Demand[i*g.Banks:(i+1)*g.Banks], t.Demand)
	}
	for k := 0; k < g.Cores; k++ {
		r.OrderIDs = append(r.OrderIDs, g.Order(CoreID(k))...)
		r.OrderStart[k+1] = int32(len(r.OrderIDs))
		r.BankTable[k] = g.BankOf(CoreID(k))
	}
	return r
}

// Graph materializes a full task graph from the flattened form: tasks with
// synthesized names (names are diagnostics, deliberately not carried by the
// flat form), demand rows installed as compiled (no re-derivation from a
// bank policy — the BankTable is the policy, already folded), adjacency
// rebuilt, and the result validated. Every slice is copied, so later
// mutation of the returned graph never reaches the RawGraph's backing
// arrays (which an engine image may have adopted).
func (r *RawGraph) Graph() (*Graph, error) { return r.graph(nil) }

// graph is Graph with task names: task i is named names[i], or "n<i>" when
// names is nil or the entry is empty (Builder's default).
func (r *RawGraph) graph(names []string) (*Graph, error) {
	if err := r.shapeError(); err != nil {
		return nil, err
	}
	n := r.NumTasks()
	g := &Graph{Cores: r.Cores, Banks: r.Banks, edges: append([]Edge(nil), r.Edges...)}
	slab := make([]Task, n)
	dem := make([]Accesses, n*r.Banks)
	copy(dem, r.Demand)
	g.tasks = make([]*Task, n)
	for i := 0; i < n; i++ {
		name := ""
		if names != nil {
			name = names[i]
		}
		if name == "" {
			name = fmt.Sprintf("n%d", i)
		}
		slab[i] = Task{
			ID:         TaskID(i),
			Name:       name,
			WCET:       r.WCET[i],
			Core:       r.Core[i],
			MinRelease: r.MinRelease[i],
			Local:      r.Local[i],
			Demand:     dem[i*r.Banks : (i+1)*r.Banks : (i+1)*r.Banks],
		}
		g.tasks[i] = &slab[i]
	}
	g.rebuildAdjacency()
	g.order = make([][]TaskID, r.Cores)
	for k := 0; k < r.Cores; k++ {
		g.order[k] = append([]TaskID(nil), r.Order(CoreID(k))...)
	}
	table := append([]BankID(nil), r.BankTable...)
	banks := r.Banks
	g.bankOf = func(k CoreID) BankID {
		if int(k) < len(table) {
			return table[k]
		}
		return BankID(int(k) % banks)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
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
	if len(r.OrderStart) != r.Cores+1 || len(r.OrderIDs) != n {
		return fmt.Errorf("model: raw graph order CSR sized %d/%d, want %d/%d", len(r.OrderStart), len(r.OrderIDs), r.Cores+1, n)
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

// Validate checks the flattened form against every invariant Graph.Validate
// enforces on the assembled form — magnitude bounds (MaxInput, the overflow
// guard), index ranges, acyclicity, and order/mapping consistency — without
// materializing a Graph. wire.Decode runs this on every decoded blob, so a
// wire-ingested image is exactly as vetted as a JSON-ingested one.
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
	if err := r.validateAcyclic(); err != nil {
		return err
	}
	return r.validateOrders()
}

// validateAcyclic runs Kahn's algorithm over the edge list. The Graph form
// delegates this to TopoSort; the flattened form rebuilds the minimal
// adjacency it needs, once, at validation time.
func (r *RawGraph) validateAcyclic() error {
	n := r.NumTasks()
	succStart, succ, indeg := successorLists(n, r.Edges)
	queue := make([]TaskID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, TaskID(i))
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, s := range succ[succStart[id]:succStart[id+1]] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("model: dependency graph has a cycle (%d of %d tasks unreachable from sources)", n-seen, seen)
	}
	return nil
}

// successorLists builds the CSR successor lists of n tasks under edges —
// task id's successors are succ[start[id]:start[id+1]], in edge order —
// and every task's in-degree. Edge endpoints must be in range.
func successorLists(n int, edges []Edge) (start []int32, succ []TaskID, indeg []int32) {
	indeg = make([]int32, n)
	start = make([]int32, n+1)
	for _, e := range edges {
		indeg[e.To]++
		start[e.From+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	succ = make([]TaskID, len(edges))
	fill := append([]int32(nil), start[:n]...)
	for _, e := range edges {
		succ[fill[e.From]] = e.To
		fill[e.From]++
	}
	return start, succ, indeg
}

// validateOrders mirrors Graph.validateOrders on the CSR form: every core's
// order lists exactly the tasks mapped to it, each exactly once, and never
// contradicts a same-core dependency.
func (r *RawGraph) validateOrders() error {
	n := r.NumTasks()
	position := make([]int, n)
	for i := range position {
		position[i] = -1
	}
	total := 0
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
			total++
		}
	}
	if total != n {
		return fmt.Errorf("model: execution orders cover %d of %d tasks", total, n)
	}
	for _, e := range r.Edges {
		if r.Core[e.From] == r.Core[e.To] && position[e.To] < position[e.From] {
			return fmt.Errorf("model: core %d orders %s before its predecessor %s (certain deadlock)",
				r.Core[e.From], e.To, e.From)
		}
	}
	return nil
}
