// Package mapper implements the framework stage *upstream* of the paper's
// analysis: assigning tasks of a dependency DAG to cores and fixing each
// core's execution order. The DATE 2020 paper assumes this stage was
// already performed (it cites Graillat's code-generation framework, where
// mapping and ordering happen before release dates and WCRTs are computed);
// this package provides the standard strategies so the library is usable on
// raw, unmapped DAGs:
//
//   - RoundRobinLayers — the evaluation's own rule: tasks of each DAG layer
//     assigned cyclically, Core(i mod cores) (Tobita–Kasahara style);
//   - LoadBalance — greedy longest-processing-time assignment per layer,
//     minimizing per-core WCET load;
//   - ListScheduling — HEFT-flavored list scheduling: tasks in topological
//     order by critical-path priority, each placed on the core with the
//     earliest (interference-free) availability.
//
// All strategies order each core topologically, which Validate guarantees
// to be deadlock-free against same-core dependencies; cross-core deadlocks
// cannot arise from a single topological order.
package mapper

import (
	"fmt"
	"sort"

	"github.com/mia-rt/mia/internal/model"
)

// Spec is an unmapped task: the mapper's input unit.
type Spec struct {
	Name       string
	WCET       model.Cycles
	MinRelease model.Cycles
	Local      model.Accesses
}

// Edge is a dependency between unmapped tasks, by Spec index.
type Edge struct {
	From, To int
	Words    model.Accesses
}

// Problem is an unmapped DAG plus the target platform geometry.
type Problem struct {
	Specs []Spec
	Edges []Edge
	Cores int
	Banks int
	// BankPolicy is passed through to demand compilation (nil = builder
	// default).
	BankPolicy func(model.CoreID) model.BankID
}

// Strategy assigns a core to every task of a problem. Implementations
// receive the dependency structure via the problem and must return one
// CoreID per spec.
type Strategy interface {
	Name() string
	Assign(p *Problem) ([]model.CoreID, error)
}

// Map applies the strategy and builds the scheduled-analysis-ready graph:
// tasks mapped, per-core orders topological, demands compiled.
func Map(p *Problem, s Strategy) (*model.Graph, error) {
	if p.Cores < 1 {
		return nil, fmt.Errorf("mapper: %d cores", p.Cores)
	}
	assignment, err := s.Assign(p)
	if err != nil {
		return nil, err
	}
	if len(assignment) != len(p.Specs) {
		return nil, fmt.Errorf("mapper: strategy %s assigned %d of %d tasks", s.Name(), len(assignment), len(p.Specs))
	}
	b := model.NewBuilder(p.Cores, p.Banks)
	if p.BankPolicy != nil {
		b.SetBankPolicy(p.BankPolicy)
	}
	for i, spec := range p.Specs {
		b.AddTask(model.TaskSpec{
			Name: spec.Name, WCET: spec.WCET, MinRelease: spec.MinRelease,
			Local: spec.Local, Core: assignment[i],
		})
	}
	for _, e := range p.Edges {
		b.AddEdge(model.TaskID(e.From), model.TaskID(e.To), e.Words)
	}
	return b.Build()
}

// DAG checks the problem's edges — endpoints in range, no cycle — and
// returns their sorted adjacency and a topological order.
func (p *Problem) DAG() (model.Adjacency, []model.TaskID, error) {
	n := len(p.Specs)
	r := model.RawGraph{WCET: make([]model.Cycles, n), Edges: make([]model.Edge, len(p.Edges))}
	for i, e := range p.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return model.Adjacency{}, nil, fmt.Errorf("mapper: edge %d→%d out of range", e.From, e.To)
		}
		r.Edges[i] = model.Edge{From: model.TaskID(e.From), To: model.TaskID(e.To)}
	}
	order, err := r.TopoSort()
	if err != nil {
		return model.Adjacency{}, nil, fmt.Errorf("mapper: %w", err)
	}
	return model.NewAdjacency(n, r.Edges), order, nil
}

// layersOf computes each task's DAG depth (layer index) from the problem's
// edges, or an error on cycles.
func layersOf(p *Problem) ([]int, error) {
	adj, order, err := p.DAG()
	if err != nil {
		return nil, err
	}
	layer := make([]int, len(p.Specs))
	for _, id := range order {
		for _, pr := range adj.Preds(id) {
			if layer[pr]+1 > layer[id] {
				layer[id] = layer[pr] + 1
			}
		}
	}
	return layer, nil
}

// RoundRobinLayers is the evaluation's mapping rule: the i-th task of each
// layer goes to core i mod cores.
type RoundRobinLayers struct{}

// Name implements Strategy.
func (RoundRobinLayers) Name() string { return "round-robin-layers" }

// Assign implements Strategy.
func (RoundRobinLayers) Assign(p *Problem) ([]model.CoreID, error) {
	layer, err := layersOf(p)
	if err != nil {
		return nil, err
	}
	counter := map[int]int{}
	out := make([]model.CoreID, len(p.Specs))
	for i := range p.Specs {
		out[i] = model.CoreID(counter[layer[i]] % p.Cores)
		counter[layer[i]]++
	}
	return out, nil
}

// LoadBalance greedily balances summed WCET per core within each layer
// (longest-processing-time-first).
type LoadBalance struct{}

// Name implements Strategy.
func (LoadBalance) Name() string { return "load-balance" }

// Assign implements Strategy.
func (LoadBalance) Assign(p *Problem) ([]model.CoreID, error) {
	layer, err := layersOf(p)
	if err != nil {
		return nil, err
	}
	byLayer := map[int][]int{}
	maxLayer := 0
	for i := range p.Specs {
		byLayer[layer[i]] = append(byLayer[layer[i]], i)
		if layer[i] > maxLayer {
			maxLayer = layer[i]
		}
	}
	out := make([]model.CoreID, len(p.Specs))
	load := make([]model.Cycles, p.Cores)
	for l := 0; l <= maxLayer; l++ {
		ids := byLayer[l]
		// Longest WCET first, ties by index for determinism.
		sort.Slice(ids, func(a, b int) bool {
			if p.Specs[ids[a]].WCET != p.Specs[ids[b]].WCET {
				return p.Specs[ids[a]].WCET > p.Specs[ids[b]].WCET
			}
			return ids[a] < ids[b]
		})
		for _, id := range ids {
			best := 0
			for k := 1; k < p.Cores; k++ {
				if load[k] < load[best] {
					best = k
				}
			}
			out[id] = model.CoreID(best)
			load[best] += p.Specs[id].WCET
		}
	}
	return out, nil
}

// ListScheduling is HEFT-flavored list scheduling: tasks are ranked by
// upward critical-path length (WCET-weighted), then greedily placed, in
// rank order, on the core that can start them earliest given dependency
// finish times and core availability (interference ignored at mapping time
// — it is not known until the downstream analysis runs).
type ListScheduling struct{}

// Name implements Strategy.
func (ListScheduling) Name() string { return "list-scheduling" }

// Assign implements Strategy.
func (ListScheduling) Assign(p *Problem) ([]model.CoreID, error) {
	n := len(p.Specs)
	adj, topo, err := p.DAG()
	if err != nil {
		return nil, err
	}
	// Upward rank: WCET + max over successors, filled in reverse
	// topological order so every successor's rank is final when read.
	rank := make([]model.Cycles, n)
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		var tail model.Cycles
		for _, s := range adj.Succs(id) {
			if rank[s] > tail {
				tail = rank[s]
			}
		}
		rank[id] = p.Specs[id].WCET + tail
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if rank[order[a]] != rank[order[b]] {
			return rank[order[a]] > rank[order[b]]
		}
		return order[a] < order[b]
	})

	out := make([]model.CoreID, n)
	coreFree := make([]model.Cycles, p.Cores)
	finish := make([]model.Cycles, n)
	placed := make([]bool, n)
	for len(order) > 0 {
		// Pick the highest-ranked task whose predecessors are all placed
		// (list scheduling processes a ready list).
		pick := -1
		for i, id := range order {
			ready := true
			for _, pr := range adj.Preds(model.TaskID(id)) {
				if !placed[pr] {
					ready = false
					break
				}
			}
			if ready {
				pick = i
				break
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("mapper: no ready task (cycle?)")
		}
		id := order[pick]
		order = append(order[:pick], order[pick+1:]...)
		var depsReady model.Cycles = p.Specs[id].MinRelease
		for _, pr := range adj.Preds(model.TaskID(id)) {
			if finish[pr] > depsReady {
				depsReady = finish[pr]
			}
		}
		best, bestStart := 0, model.Infinity
		for k := 0; k < p.Cores; k++ {
			start := coreFree[k]
			if depsReady > start {
				start = depsReady
			}
			if start < bestStart {
				best, bestStart = k, start
			}
		}
		out[id] = model.CoreID(best)
		finish[id] = bestStart + p.Specs[id].WCET
		coreFree[best] = finish[id]
		placed[id] = true
	}
	return out, nil
}
