// Package dataflow implements the front of the framework the paper builds
// on (Section I): applications are written as synchronous dataflow (SDF)
// graphs, "divided into smaller computational blocks that are compiled into
// C code, resulting in a DAG of tasks, partially ordered by their
// dependencies".
//
// An SDF graph is a set of actors connected by FIFO channels; each firing
// of an actor consumes a fixed number of tokens from every input channel
// and produces a fixed number on every output channel. The package
// provides:
//
//   - consistency analysis: solving the balance equations for the
//     repetition vector (how many times each actor fires per graph
//     iteration); inconsistent graphs (no non-trivial solution) are
//     rejected;
//   - deadlock analysis: verifying that initial tokens allow one full
//     iteration to fire;
//   - single-rate expansion: unrolling one iteration into a task DAG
//     (one task per firing, dependency edges derived from token flow),
//     the form consumed by the mapper and the interference analysis.
//
// Token counts translate to communication volumes: an edge carrying k
// tokens of size s words contributes k·s written words, matching the
// write counts on the paper's DAG edges.
package dataflow

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/mia-rt/mia/internal/mapper"
	"github.com/mia-rt/mia/internal/model"
)

// Actor is one computational block of the SDF graph.
type Actor struct {
	Name string
	// WCET is the worst-case execution time of one firing, in cycles.
	WCET model.Cycles
	// Local is the number of private memory accesses of one firing.
	Local model.Accesses
}

// Channel is a FIFO between two actors. Each firing of From produces
// Produce tokens; each firing of To consumes Consume tokens; Initial
// tokens are present before the first firing (delays). TokenWords is the
// size of one token in memory words — the unit of communication volume.
type Channel struct {
	From, To   int // actor indices
	Produce    int
	Consume    int
	Initial    int
	TokenWords model.Accesses
}

// Graph is a synchronous dataflow graph.
type Graph struct {
	Actors   []Actor
	Channels []Channel
}

// AddActor appends an actor and returns its index.
func (g *Graph) AddActor(a Actor) int {
	g.Actors = append(g.Actors, a)
	return len(g.Actors) - 1
}

// AddChannel appends a channel.
func (g *Graph) AddChannel(c Channel) {
	g.Channels = append(g.Channels, c)
}

// validate checks structural sanity.
func (g *Graph) validate() error {
	n := len(g.Actors)
	if n == 0 {
		return fmt.Errorf("dataflow: empty graph")
	}
	for i, a := range g.Actors {
		if a.WCET < 0 || a.Local < 0 {
			return fmt.Errorf("dataflow: actor %q has negative cost", a.Name)
		}
		if a.Name == "" {
			g.Actors[i].Name = fmt.Sprintf("actor%d", i)
		}
	}
	for _, c := range g.Channels {
		switch {
		case c.From < 0 || c.From >= n || c.To < 0 || c.To >= n:
			return fmt.Errorf("dataflow: channel %d→%d out of range", c.From, c.To)
		case c.Produce < 1 || c.Consume < 1:
			return fmt.Errorf("dataflow: channel %d→%d has non-positive rates %d/%d", c.From, c.To, c.Produce, c.Consume)
		case c.Initial < 0:
			return fmt.Errorf("dataflow: channel %d→%d has negative initial tokens", c.From, c.To)
		case c.TokenWords < 0:
			return fmt.Errorf("dataflow: channel %d→%d has negative token size", c.From, c.To)
		}
	}
	return nil
}

// Repetitions solves the balance equations q[from]·produce = q[to]·consume
// for the smallest positive integer repetition vector. It returns an error
// if the graph is inconsistent (rates admit only the zero solution).
func (g *Graph) Repetitions() ([]int, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	n := len(g.Actors)
	// Rational propagation: assign q[0] of each weakly-connected component
	// 1/1 and walk channels as constraints; then scale to integers.
	num := make([]int64, n) // q[i] = num[i]/den[i]
	den := make([]int64, n)
	visited := make([]bool, n)
	adj := make([][]Channel, n)
	for _, c := range g.Channels {
		adj[c.From] = append(adj[c.From], c)
		// Reverse view for traversal.
		adj[c.To] = append(adj[c.To], Channel{
			From: c.To, To: c.From, Produce: c.Consume, Consume: c.Produce,
		})
	}
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		num[start], den[start] = 1, 1
		visited[start] = true
		queue := []int{start}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, c := range adj[u] {
				// q[u]·produce = q[to]·consume → q[to] = q[u]·produce/consume
				wantNum := num[u] * int64(c.Produce)
				wantDen := den[u] * int64(c.Consume)
				f := gcd(wantNum, wantDen)
				wantNum, wantDen = wantNum/f, wantDen/f
				if !visited[c.To] {
					num[c.To], den[c.To] = wantNum, wantDen
					visited[c.To] = true
					queue = append(queue, c.To)
				} else if num[c.To]*wantDen != wantNum*den[c.To] {
					return nil, fmt.Errorf("dataflow: inconsistent rates around actor %q", g.Actors[c.To].Name)
				}
			}
		}
	}
	// Scale to the least common multiple of denominators.
	var l int64 = 1
	for i := 0; i < n; i++ {
		l = lcm(l, den[i])
	}
	reps := make([]int, n)
	var common int64
	for i := 0; i < n; i++ {
		v := num[i] * (l / den[i])
		if v <= 0 {
			return nil, fmt.Errorf("dataflow: actor %q has non-positive repetition", g.Actors[i].Name)
		}
		common = gcd(common, v)
		reps[i] = int(v)
	}
	if common > 1 {
		for i := range reps {
			reps[i] = int(int64(reps[i]) / common)
		}
	}
	return reps, nil
}

// Expand unrolls one iteration of the SDF graph into an unmapped task DAG
// (a mapper.Problem): firing j of actor a becomes task "a#j"; token flow
// induces dependency edges between producing and consuming firings, with
// communication volume = tokens transferred × token size. Initial tokens
// satisfy consumptions without creating intra-iteration dependencies (they
// come from the previous iteration). An error is returned if the graph is
// inconsistent or deadlocks (some firing can never be enabled).
func (g *Graph) Expand(cores, banks int) (*mapper.Problem, error) {
	reps, err := g.Repetitions()
	if err != nil {
		return nil, err
	}
	p := &mapper.Problem{Cores: cores, Banks: banks}
	// Task index of firing j of actor a.
	firstTask := make([]int, len(g.Actors))
	for a, r := range reps {
		firstTask[a] = len(p.Specs)
		for j := 0; j < r; j++ {
			name := g.Actors[a].Name
			if r > 1 {
				name = fmt.Sprintf("%s#%d", name, j)
			}
			p.Specs = append(p.Specs, mapper.Spec{
				Name:  name,
				WCET:  g.Actors[a].WCET,
				Local: g.Actors[a].Local,
			})
		}
	}
	// Token matching per channel: the k-th token consumed in this
	// iteration is either an initial token (k < Initial: no edge) or the
	// (k − Initial)-th token produced this iteration.
	type edgeKey struct{ from, to int }
	volume := map[edgeKey]model.Accesses{}
	for _, c := range g.Channels {
		produced := reps[c.From] * c.Produce
		consumed := reps[c.To] * c.Consume
		if produced != consumed {
			return nil, fmt.Errorf("dataflow: internal rate mismatch on %d→%d", c.From, c.To)
		}
		for k := 0; k < consumed; k++ {
			consumerFiring := k / c.Consume
			producedIdx := k - c.Initial
			if producedIdx < 0 {
				continue // satisfied by an initial token
			}
			if producedIdx >= produced {
				// Consumption beyond this iteration's production: the
				// channel borrows from the next iteration — a deadlock
				// within one iteration.
				return nil, fmt.Errorf("dataflow: channel %q→%q deadlocks within an iteration",
					g.Actors[c.From].Name, g.Actors[c.To].Name)
			}
			producerFiring := producedIdx / c.Produce
			key := edgeKey{
				from: firstTask[c.From] + producerFiring,
				to:   firstTask[c.To] + consumerFiring,
			}
			volume[key] += c.TokenWords
		}
	}
	for key, words := range volume {
		p.Edges = append(p.Edges, mapper.Edge{From: key.from, To: key.to, Words: words})
	}
	// Keys are unique, so the order is total.
	slices.SortFunc(p.Edges, func(a, b mapper.Edge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	// A cyclic expansion (insufficient initial tokens on a loop) is a
	// deadlock. The edges are in range by construction, so a cycle is the
	// only error the check can report.
	if _, _, err := p.DAG(); err != nil {
		return nil, fmt.Errorf("dataflow: expansion deadlocks: %w", err)
	}
	return p, nil
}

// Compile is the full front end: expand one iteration and map it onto the
// platform with the given strategy, yielding the analysis-ready graph.
func (g *Graph) Compile(cores, banks int, s mapper.Strategy) (*model.Graph, error) {
	p, err := g.Expand(cores, banks)
	if err != nil {
		return nil, err
	}
	return mapper.Map(p, s)
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

func lcm(a, b int64) int64 { return a / gcd(a, b) * b }
