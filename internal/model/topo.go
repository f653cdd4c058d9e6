package model

import "fmt"

// TopoSort returns the task IDs in a deterministic topological order of the
// dependency DAG (Kahn's algorithm, ties broken by smallest ID). It returns
// an error naming a task on a cycle if the graph is not acyclic.
func (g *Graph) TopoSort() ([]TaskID, error) {
	n := len(g.tasks)
	indeg := make([]int, n)
	for _, e := range g.edges {
		indeg[e.To]++
	}
	// ready is a binary min-heap of task IDs, so the produced order is the
	// unique smallest-ID-first topological order.
	ready := make(taskIDHeap, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(TaskID(i))
		}
	}
	order := make([]TaskID, 0, n)
	for len(ready) > 0 {
		id := ready.pop()
		order = append(order, id)
		for _, s := range g.succs[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	if len(order) != n {
		for i := 0; i < n; i++ {
			if indeg[i] > 0 {
				return nil, fmt.Errorf("model: dependency cycle through %s (%q)", TaskID(i), g.tasks[i].Name)
			}
		}
	}
	return order, nil
}

// Depths returns, for every task, its depth in the DAG: 0 for sources, and
// 1 + max depth of predecessors otherwise. This is the layer index used by
// the layer-by-layer generator's inverse and by the Gantt renderer.
func (g *Graph) Depths() ([]int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	depth := make([]int, len(g.tasks))
	for _, id := range order {
		for _, p := range g.preds[id] {
			if depth[p]+1 > depth[id] {
				depth[id] = depth[p] + 1
			}
		}
	}
	return depth, nil
}

// CriticalPath returns the length of the longest WCET-weighted path through
// the DAG, honoring minimal release dates but ignoring interference and core
// contention: a lower bound on any schedule's makespan.
func (g *Graph) CriticalPath() (Cycles, error) {
	order, err := g.TopoSort()
	if err != nil {
		return 0, err
	}
	finish := make([]Cycles, len(g.tasks))
	var longest Cycles
	for _, id := range order {
		t := g.tasks[id]
		start := t.MinRelease
		for _, p := range g.preds[id] {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[id] = start + t.WCET
		if finish[id] > longest {
			longest = finish[id]
		}
	}
	return longest, nil
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
