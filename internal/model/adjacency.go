package model

// Adjacency is the sorted CSR form of a graph's edges: task id's
// successors are Succ[SuccStart[id]:SuccStart[id+1]] and its predecessors
// Pred[PredStart[id]:PredStart[id+1]], each list sorted by task ID, so
// every traversal over it is deterministic. A repeated edge appears once
// per occurrence.
type Adjacency struct {
	SuccStart []int32
	Succ      []TaskID
	PredStart []int32
	Pred      []TaskID
}

// NewAdjacency builds the sorted adjacency of n tasks under edges, whose
// endpoints must be in range. Three counting passes, linear time, no
// comparison sort: group targets by source in edge order (groupBySource);
// walk the sources in ascending order appending each to its targets' Pred
// lists (sorted by construction); walk the targets in ascending order
// rewriting Succ from Pred (sorted by construction).
func NewAdjacency(n int, edges []Edge) Adjacency {
	a, fill := groupBySource(n, edges)
	a.Pred = make([]TaskID, len(edges))
	copy(fill, a.PredStart)
	for from := 0; from < n; from++ {
		for _, to := range a.Succs(TaskID(from)) {
			a.Pred[fill[to]] = TaskID(from)
			fill[to]++
		}
	}
	copy(fill, a.SuccStart)
	for to := 0; to < n; to++ {
		for _, from := range a.Preds(TaskID(to)) {
			a.Succ[fill[from]] = TaskID(to)
			fill[from]++
		}
	}
	return a
}

// groupBySource is NewAdjacency's first pass: both offset indexes, and
// Succ grouped by source in edge order, not yet sorted; Pred is left nil.
// It also returns the n-entry scratch buffer the later passes reuse.
func groupBySource(n int, edges []Edge) (Adjacency, []int32) {
	a := Adjacency{
		SuccStart: make([]int32, n+1),
		Succ:      make([]TaskID, len(edges)),
		PredStart: make([]int32, n+1),
	}
	for _, e := range edges {
		a.SuccStart[e.From+1]++
		a.PredStart[e.To+1]++
	}
	for i := 0; i < n; i++ {
		a.SuccStart[i+1] += a.SuccStart[i]
		a.PredStart[i+1] += a.PredStart[i]
	}
	fill := make([]int32, n)
	copy(fill, a.SuccStart)
	for _, e := range edges {
		a.Succ[fill[e.From]] = e.To
		fill[e.From]++
	}
	return a, fill
}

// Succs returns task id's successors sorted by ID. Read-only.
//
//mia:hotpath
func (a *Adjacency) Succs(id TaskID) []TaskID {
	return a.Succ[a.SuccStart[id]:a.SuccStart[id+1]]
}

// Preds returns task id's predecessors sorted by ID. Read-only.
//
//mia:hotpath
func (a *Adjacency) Preds(id TaskID) []TaskID {
	return a.Pred[a.PredStart[id]:a.PredStart[id+1]]
}

// PredCount returns the number of direct predecessors of task id.
//
//mia:hotpath
func (a *Adjacency) PredCount(id TaskID) int {
	return int(a.PredStart[id+1] - a.PredStart[id])
}
