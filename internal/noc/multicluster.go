package noc

import (
	"context"
	"fmt"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

// eng analyzes each cluster: the paper's O(n²) incremental scheduler.
var eng = engine.MustNew(engine.Incremental)

// InterEdge is a cross-cluster dependency: the consumer task (in its
// cluster) cannot start before the producer task's output has traversed
// the NoC.
type InterEdge struct {
	FromCluster ClusterID
	FromTask    model.TaskID
	ToCluster   ClusterID
	ToTask      model.TaskID
	// Flow carries the edge's payload; From/To are filled from the
	// clusters if left zero.
	Flow Flow
}

// System is a multi-cluster application: one task graph per cluster (each
// analyzed with the paper's single-cluster algorithm) plus NoC-borne
// dependencies between clusters.
type System struct {
	Topology *Topology
	// Graphs maps cluster → its task graph. Missing clusters are idle.
	Graphs map[ClusterID]*model.Graph
	Edges  []InterEdge
}

// Result is the outcome of the multi-cluster analysis.
type Result struct {
	// Schedules holds the per-cluster schedules at the global fixed point.
	Schedules map[ClusterID]*sched.Result
	// EdgeLatency holds the NoC worst-case traversal bound per InterEdge
	// (indexed like System.Edges).
	EdgeLatency []model.Cycles
	// Makespan is the latest finish across all clusters.
	Makespan model.Cycles
	// Rounds counts global fixed-point rounds.
	Rounds int
}

// Analyze composes per-cluster interference analyses with NoC latency
// bounds into a global time-triggered schedule:
//
//  1. each cluster is scheduled independently (the O(n²) algorithm);
//  2. every inter-cluster edge imposes, on its consumer, a minimal release
//     of producer-finish + worst-case NoC traversal;
//  3. repeat until no minimal release changes — release dates only grow,
//     so the iteration reaches a fixed point in at most |Edges| rounds
//     unless the constraints are circular, which is reported.
//
// The per-cluster graphs are cloned; inputs are never mutated. Each round
// raises minimal release dates — a quantity compiled into an engine image —
// so every (cluster, round) analysis compiles and analyzes through the
// engine façade. Canceling ctx aborts the analysis between and inside
// cluster runs.
func (s *System) Analyze(ctx context.Context, opts sched.Options) (*Result, error) {
	if s.Topology == nil {
		return nil, fmt.Errorf("noc: system without topology")
	}
	if err := s.Topology.Validate(); err != nil {
		return nil, err
	}
	graphs := make(map[ClusterID]*model.Graph, len(s.Graphs))
	for c, g := range s.Graphs {
		if c < 0 || int(c) >= s.Topology.Clusters() {
			return nil, fmt.Errorf("noc: cluster %d outside the topology", c)
		}
		graphs[c] = g.Clone()
	}

	// NoC flow set and per-edge latency bounds (release-date independent:
	// regulation parameters, not schedules, determine them).
	flows := make([]Flow, len(s.Edges))
	for i, e := range s.Edges {
		f := e.Flow
		f.From, f.To = e.FromCluster, e.ToCluster
		if f.Name == "" {
			f.Name = fmt.Sprintf("edge%d", i)
		}
		flows[i] = f
	}
	res := &Result{Schedules: make(map[ClusterID]*sched.Result), EdgeLatency: make([]model.Cycles, len(s.Edges))}
	for i := range s.Edges {
		lat, err := s.Topology.Latency(flows[i], flows)
		if err != nil {
			return nil, err
		}
		res.EdgeLatency[i] = lat
	}
	for i, e := range s.Edges {
		g, ok := graphs[e.FromCluster]
		if !ok || int(e.FromTask) >= g.NumTasks() {
			return nil, fmt.Errorf("noc: edge %d references unknown producer", i)
		}
		g, ok = graphs[e.ToCluster]
		if !ok || int(e.ToTask) >= g.NumTasks() {
			return nil, fmt.Errorf("noc: edge %d references unknown consumer", i)
		}
		if e.FromCluster == e.ToCluster {
			return nil, fmt.Errorf("noc: edge %d is intra-cluster; model it as a graph edge", i)
		}
	}

	maxRounds := len(s.Edges) + 2
	for round := 1; ; round++ {
		if round > maxRounds {
			return nil, fmt.Errorf("noc: inter-cluster constraints did not converge in %d rounds (circular dependency between clusters?)", maxRounds)
		}
		res.Rounds = round
		for c, g := range graphs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			img, err := engine.Compile(g, opts)
			if err != nil {
				return nil, fmt.Errorf("noc: cluster %d: %w", c, err)
			}
			r, err := eng.Analyze(ctx, img)
			if err != nil {
				return nil, fmt.Errorf("noc: cluster %d: %w", c, err)
			}
			res.Schedules[c] = r
		}
		changed := false
		for i, e := range s.Edges {
			producerFinish := res.Schedules[e.FromCluster].Finish(e.FromTask)
			arrival := producerFinish + res.EdgeLatency[i]
			if rel := graphs[e.ToCluster].MinRelease; rel[e.ToTask] < arrival {
				rel[e.ToTask] = arrival
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, r := range res.Schedules {
		if r.Makespan > res.Makespan {
			res.Makespan = r.Makespan
		}
	}
	return res, nil
}
