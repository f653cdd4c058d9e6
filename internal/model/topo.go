package model

import "fmt"

// TopoSort returns the task IDs in the unique smallest-ID-first
// topological order of the dependency DAG (Kahn's algorithm with a min-heap
// of ready tasks). It is also the acyclicity check: on a cycle it returns
// an error counting the tasks no source reaches. Edge endpoints must be in
// range, as on any graph that passed Validate.
func (r *RawGraph) TopoSort() ([]TaskID, error) {
	n := r.NumTasks()
	// The heap makes the order independent of the order successors are
	// visited in, so the first, unsorted pass of NewAdjacency suffices;
	// its scratch buffer holds the in-degrees.
	adj, indeg := groupBySource(n, r.Edges)
	ready := make(taskIDHeap, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] = int32(adj.PredCount(TaskID(i))); indeg[i] == 0 {
			ready.push(TaskID(i))
		}
	}
	order := make([]TaskID, 0, n)
	for len(ready) > 0 {
		id := ready.pop()
		order = append(order, id)
		for _, s := range adj.Succs(id) {
			if indeg[s]--; indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("model: dependency graph has a cycle (%d of %d tasks unreachable from sources)", n-len(order), n)
	}
	return order, nil
}

// fillOrders builds the order CSR: core k runs the order explicit(k)
// reports, or, when it reports none, its tasks in the smallest-ID-first
// topological order, which never contradicts a dependency. Builder and
// DecodeJSON fill orders through it; the result is left to Validate.
func (r *RawGraph) fillOrders(explicit func(CoreID) ([]TaskID, bool)) error {
	n, cores := r.NumTasks(), r.Cores
	needDefault := false
	for k := 0; k < cores && !needDefault; k++ {
		_, ok := explicit(CoreID(k))
		needDefault = !ok
	}
	var byCore []TaskID
	var start []int32
	if needDefault {
		topo, err := r.TopoSort()
		if err != nil {
			return err
		}
		// Bucket the topological order by core, stably: each core's
		// default order is its tasks' subsequence of topo.
		start = make([]int32, cores+1)
		for _, c := range r.Core {
			start[c+1]++
		}
		for c := 0; c < cores; c++ {
			start[c+1] += start[c]
		}
		fill := append([]int32(nil), start[:cores]...)
		byCore = make([]TaskID, n)
		for _, id := range topo {
			c := r.Core[id]
			byCore[fill[c]] = id
			fill[c]++
		}
	}
	r.OrderStart = make([]int32, cores+1)
	r.OrderIDs = make([]TaskID, 0, n)
	for k := 0; k < cores; k++ {
		order, ok := explicit(CoreID(k))
		if !ok {
			order = byCore[start[k]:start[k+1]]
		}
		r.OrderIDs = append(r.OrderIDs, order...)
		r.OrderStart[k+1] = int32(len(r.OrderIDs))
	}
	return nil
}

// taskIDHeap is a minimal binary min-heap of TaskIDs. It avoids the
// container/heap interface boilerplate and its interface-dispatch overhead
// in the hot path of TopoSort.
type taskIDHeap []TaskID

func (h *taskIDHeap) push(id TaskID) {
	*h = append(*h, id)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent] <= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *taskIDHeap) pop() TaskID {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && (*h)[l] < (*h)[small] {
			small = l
		}
		if r < last && (*h)[r] < (*h)[small] {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}
