package model

import (
	"fmt"
	"slices"
)

// Edge is a data dependency between two tasks. The consumer cannot start
// before the producer has finished. Words is the communication volume: the
// number of words the producer writes into the consumer's memory bank, which
// the demand compiler charges to the producer's per-bank access vector
// (matching the write counts drawn on the DAG edges of the paper's Figure 1).
type Edge struct {
	From  TaskID
	To    TaskID
	Words Accesses
}

// Graph is a task graph: a DAG of tasks with a core mapping, a per-core
// execution order, and compiled per-bank memory demands. Its storage is the
// flat RawGraph the analyses read, embedded, so g.WCET[id], g.Core[id],
// g.DemandRow(id), g.Order(k), g.Validate() and g.Fingerprint() are the
// flat form's own; besides it a Graph keeps the task names and the sorted
// adjacency of its edges. Build one with Builder, ReadJSON or the
// generators in internal/gen.
//
// Editors (SetOrder, SwapOrder, CompileDemands, or a direct write to the
// flat arrays) change the graph in place; Validate reports what an edit
// broke. All schedulers treat graphs as read-only, so a single Graph may be
// analyzed by several goroutines while nobody edits it.
type Graph struct {
	RawGraph

	names []string  // by task ID; "" (or no entry) means the default "n<id>"
	adj   Adjacency // of RawGraph.Edges, read-only
}

// NewGraph wraps a flat graph that passed Validate, adopting its arrays:
// task i is named names[i], or "n<i>" when names is nil or the entry is
// empty. The adjacency is built from r's edges.
func NewGraph(r *RawGraph, names []string) *Graph {
	return &Graph{RawGraph: *r, names: names, adj: NewAdjacency(r.NumTasks(), r.Edges)}
}

// Raw returns the graph's flat form: the stored arrays, not a copy.
func (g *Graph) Raw() *RawGraph { return &g.RawGraph }

// Name returns the name of task id: the one it was built or read with, or
// "n<id>" for a task that has none.
func (g *Graph) Name(id TaskID) string {
	if int(id) < len(g.names) && g.names[id] != "" {
		return g.names[id]
	}
	return fmt.Sprintf("n%d", int(id))
}

// Edges returns all dependency edges in source order. Callers must not
// mutate the slice.
func (g *Graph) Edges() []Edge { return g.RawGraph.Edges }

// Successors returns the IDs of the tasks that depend on id, sorted.
func (g *Graph) Successors(id TaskID) []TaskID { return g.adj.Succs(id) }

// Predecessors returns the IDs of the tasks id depends on, sorted.
func (g *Graph) Predecessors(id TaskID) []TaskID { return g.adj.Preds(id) }

// SetOrder replaces the execution order of core k with a copy of order.
// The order may change length, as it does when tasks move between cores:
// the order CSR is spliced, and Validate reports an order set that no
// longer partitions the tasks by core.
func (g *Graph) SetOrder(k CoreID, order []TaskID) {
	s, e := g.OrderStart[k], g.OrderStart[k+1]
	if delta := int32(len(order)) - (e - s); delta != 0 {
		g.OrderIDs = slices.Concat(g.OrderIDs[:s], order, g.OrderIDs[e:])
		for c := int(k) + 1; c < len(g.OrderStart); c++ {
			g.OrderStart[c] += delta
		}
		return
	}
	copy(g.OrderIDs[s:e], order)
}

// SwapOrder exchanges the tasks at positions pos and pos+1 of core k's
// execution order in place. A swap is undone by calling SwapOrder again
// with the same arguments. The caller is responsible for position bounds
// and for re-validating dependency consistency.
func (g *Graph) SwapOrder(k CoreID, pos int) {
	o := g.Order(k)
	o[pos], o[pos+1] = o[pos+1], o[pos]
}

// Clone returns a copy of the graph whose flat arrays can be edited
// without touching g. The names and the adjacency are read-only and
// shared.
func (g *Graph) Clone() *Graph {
	return &Graph{RawGraph: *g.RawGraph.Clone(), names: g.names, adj: g.adj}
}

// TotalWCET returns the sum of all task WCETs: the sequential lower bound on
// any single-core execution and a convenient scale for deadlines.
func (g *Graph) TotalWCET() Cycles {
	var sum Cycles
	for _, c := range g.WCET {
		sum += c
	}
	return sum
}

// Stats summarizes a graph for logging and benchmark tables.
type Stats struct {
	Tasks     int
	Edges     int
	Cores     int
	Banks     int
	TotalWCET Cycles
	MaxDegree int
}

// Stats computes summary statistics of the graph.
func (g *Graph) Stats() Stats {
	s := Stats{
		Tasks:     g.NumTasks(),
		Edges:     len(g.Edges()),
		Cores:     g.Cores,
		Banks:     g.Banks,
		TotalWCET: g.TotalWCET(),
	}
	for i := 0; i < g.NumTasks(); i++ {
		id := TaskID(i)
		if d := len(g.Successors(id)) + len(g.Predecessors(id)); d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	return s
}

// String renders a one-line graph summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{tasks=%d edges=%d cores=%d banks=%d}",
		g.NumTasks(), len(g.Edges()), g.Cores, g.Banks)
}
