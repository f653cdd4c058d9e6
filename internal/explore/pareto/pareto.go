// Package pareto is the design-space search of the repository: an NSGA-II
// portfolio search whose own variation operators (genome.go) walk per-core
// order permutations, task→core remapping and bank-policy flips,
// optimizing a vector of pluggable objectives at once and reporting the
// global Pareto front (makespan vs. peak per-bank interference vs. bank
// balance by default, the SINTEO-style trade-off). A single-objective
// search, such as makespan alone, is a one-element objective vector.
//
// Determinism is load-bearing: fronts must be byte-identical across worker
// counts and repeated runs of the same seed, because golden front
// fingerprints gate CI and served jobs stream front updates that clients
// may replay. Every random draw (initialization, tournament selection,
// variation) therefore happens sequentially in the search goroutine
// against one seeded source; only candidate evaluation fans out, over
// pool.MapWith with one long-lived evaluation worker per slot, and results
// return in submission order. Non-dominated sorting, crowding, and environmental
// selection break all ties by population index; the archive orders its
// front canonically by objective values, then fingerprint.
//
// Each evaluation worker owns a warm analyzer over the shared compiled
// image: order-only genomes load their permutation into the worker's order
// overlay and analyze without any recompile or graph copy; structural
// genomes (remapped or repolicied) copy the image's graph, write the
// mapping into it, rebuild demands from an explicit bank table, recompile,
// and analyze cold. Both paths are pure functions of the genome, so
// results never depend on which worker evaluated what.
package pareto

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/explore/objective"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/pool"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

// Options configures one NSGA-II search.
type Options struct {
	// Objectives is the vector to minimize; nil means the default
	// makespan / peak-interference / bank-variance triple.
	Objectives []objective.Objective
	// PopSize is the population size (default 24, minimum 2).
	PopSize int
	// Generations is the number of NSGA-II generations (default 30).
	Generations int
	// Seed drives the single deterministic random source.
	Seed int64
	// Jobs bounds concurrent candidate evaluations (≤ 1 is sequential).
	// The front is byte-identical at every jobs level.
	Jobs int
	// OnFront, when set, is called from the search goroutine after every
	// generation whose archive changed, with the current global front in
	// canonical order. Served jobs stream these updates.
	OnFront func(FrontUpdate)
}

func (o Options) popSize() int {
	if o.PopSize < 2 {
		if o.PopSize != 0 {
			return 2
		}
		return 24
	}
	return o.PopSize
}

func (o Options) generations() int {
	if o.Generations <= 0 {
		return 30
	}
	return o.Generations
}

func (o Options) objectives() []objective.Objective {
	if len(o.Objectives) == 0 {
		return objective.Default()
	}
	return o.Objectives
}

// FrontUpdate is one streamed snapshot of the global front.
type FrontUpdate struct {
	Generation  int     `json:"generation"`
	Evaluations int     `json:"evaluations"`
	Points      []Point `json:"points"`
}

// Result is a finished search: the global Pareto front in canonical order
// plus the search's accounting.
type Result struct {
	Objectives  []string
	Generations int
	Evaluations int
	Front       []Point
}

// worker is one evaluation slot: a warm analyzer over the shared image for
// order-only genomes, and the engine façade for cold analyses of
// recompiled structural genomes.
type worker struct {
	img  *engine.Image
	eng  *engine.Engine
	w    engine.Warm
	objs []objective.Objective
}

// evalOut is one candidate's evaluation: objective values (all +Inf when
// the candidate is unschedulable or structurally invalid), the candidate's
// canonical fingerprint, and its policy label.
type evalOut struct {
	values []float64
	fp     string
	policy string
	valid  bool
}

// eval analyzes one genome. Pure function of the genome: warm order-only
// evaluations are bit-identical to cold ones, and structural evaluations
// recompile from scratch.
func (wk *worker) eval(ctx context.Context, g *Genome) evalOut {
	policy := "baseline"
	if g.Policy != PolicyBaseline {
		policy = g.Policy.String()
	}
	if !g.structural {
		ord := wk.w.Orders()
		for k := range g.Orders {
			ord.SetOrder(model.CoreID(k), g.Orders[k])
		}
		out := evalOut{fp: wk.img.FingerprintOrders(ord), policy: policy}
		res, err := wk.w.Analyze(ctx)
		if err != nil {
			out.values = infValues(len(wk.objs))
			return out
		}
		out.valid = true
		out.values = scores(wk.objs, objective.Eval{Img: wk.img, Res: res})
		return out
	}
	gg := wk.img.NewGraph()
	copy(gg.Core, g.Assign)
	for k := range g.Orders {
		gg.SetOrder(model.CoreID(k), g.Orders[k])
	}
	tab := append([]model.BankID(nil), wk.img.BankTable...)
	if g.Policy != PolicyBaseline {
		tab = g.Policy.Table(gg.Cores, gg.Banks)
	}
	gg.CompileDemands(func(k model.CoreID) model.BankID { return tab[k] })
	img, err := engine.Compile(gg, wk.img.Opts)
	if err != nil {
		return evalOut{values: infValues(len(wk.objs)), fp: gg.Fingerprint(), policy: policy}
	}
	out := evalOut{fp: img.Fingerprint(), policy: policy}
	res, err := wk.eng.Analyze(ctx, img)
	if err != nil {
		out.values = infValues(len(wk.objs))
		return out
	}
	out.valid = true
	out.values = scores(wk.objs, objective.Eval{Img: img, Res: res})
	return out
}

func infValues(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Inf(1)
	}
	return v
}

func scores(objs []objective.Objective, e objective.Eval) []float64 {
	v := make([]float64, len(objs))
	for i, o := range objs {
		v[i] = o.Score(e)
	}
	return v
}

// indiv is one population member with its NSGA-II bookkeeping.
type indiv struct {
	g     *Genome
	out   evalOut
	rank  int
	crowd float64
}

// Search runs the NSGA-II portfolio search over the compiled image and
// returns the global Pareto front. The outcome is a pure function of
// (image, Options) at every Jobs level.
func Search(ctx context.Context, img *engine.Image, opts Options) (*Result, error) {
	objs := opts.objectives()
	popSize := opts.popSize()
	gens := opts.generations()
	jobs := opts.Jobs
	if jobs < 1 {
		jobs = 1
	}
	eng := engine.MustNew(engine.Incremental)
	workers := make([]*worker, jobs)
	for i := range workers {
		workers[i] = &worker{img: img, eng: eng, w: eng.NewWarm(img), objs: objs}
	}
	evaluate := func(gs []*Genome) ([]evalOut, error) {
		return pool.MapWith(ctx, workers, len(gs),
			func(c context.Context, wk *worker, i int) (evalOut, error) {
				return wk.eval(c, gs[i]), nil
			})
	}

	mut := newMutator(img)
	rng := rand.New(rand.NewSource(opts.Seed))

	// Initial population: the baseline configuration plus seeded mutants
	// at increasing edit distance.
	genomes := make([]*Genome, popSize)
	genomes[0] = baselineGenome(img)
	for i := 1; i < popSize; i++ {
		child := genomes[0]
		for s := 1 + rng.Intn(3); s > 0; s-- {
			child = mut.mutate(child, rng)
		}
		genomes[i] = child
	}
	outs, err := evaluate(genomes)
	if err != nil {
		return nil, err
	}
	totalEvals := len(genomes)

	arch := newArchive()
	anyValid := false
	for i, out := range outs {
		if out.valid {
			anyValid = true
			arch.add(point(genomes[i], out, objs))
		}
	}
	if !anyValid {
		return nil, fmt.Errorf("pareto: no schedulable candidate in the initial population")
	}
	emit(opts, FrontUpdate{Generation: 0, Evaluations: totalEvals, Points: arch.front()})

	pop := make([]indiv, popSize)
	for i := range pop {
		pop[i] = indiv{g: genomes[i], out: outs[i]}
	}
	rerank(pop)

	for gen := 1; gen <= gens; gen++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Variation: all randomness drawn sequentially here, before the
		// parallel evaluation fan-out.
		offspring := make([]*Genome, popSize)
		for i := range offspring {
			offspring[i] = mut.mutate(pop[tournament(rng, pop)].g, rng)
		}
		offOuts, err := evaluate(offspring)
		if err != nil {
			return nil, err
		}
		totalEvals += len(offspring)
		changed := false
		for i, out := range offOuts {
			if out.valid && arch.add(point(offspring[i], out, objs)) {
				changed = true
			}
		}
		if changed {
			emit(opts, FrontUpdate{Generation: gen, Evaluations: totalEvals, Points: arch.front()})
		}

		// Environmental selection over parents ∪ offspring.
		combined := make([]indiv, 0, 2*popSize)
		combined = append(combined, pop...)
		for i := range offspring {
			combined = append(combined, indiv{g: offspring[i], out: offOuts[i]})
		}
		values := make([][]float64, len(combined))
		for i := range combined {
			values[i] = combined[i].out.values
		}
		fronts := nonDominatedSort(values)
		next := make([]indiv, 0, popSize)
		for _, f := range fronts {
			if len(next)+len(f) <= popSize {
				for _, i := range f {
					next = append(next, combined[i])
				}
				if len(next) == popSize {
					break
				}
				continue
			}
			// Truncate the split front by crowding distance, most
			// isolated first, population index as the tie-break.
			crowd := crowdingDistance(f, values)
			trunc := append([]int(nil), f...)
			sort.Slice(trunc, func(a, b int) bool {
				ca, cb := crowd[trunc[a]], crowd[trunc[b]]
				if ca != cb {
					return ca > cb
				}
				return trunc[a] < trunc[b]
			})
			for _, i := range trunc[:popSize-len(next)] {
				next = append(next, combined[i])
			}
			break
		}
		pop = next
		rerank(pop)
	}

	return &Result{
		Objectives:  objective.NamesOf(objs),
		Generations: gens,
		Evaluations: totalEvals,
		Front:       arch.front(),
	}, nil
}

func point(g *Genome, out evalOut, objs []objective.Objective) Point {
	return Point{
		Fingerprint: out.fp,
		Policy:      out.policy,
		Values:      append([]float64(nil), out.values...),
		Genome:      g,
	}
}

func emit(opts Options, u FrontUpdate) {
	if opts.OnFront != nil {
		opts.OnFront(u)
	}
}

// rerank recomputes ranks and crowding distances of the current population
// (the tournament operator's fitness).
func rerank(pop []indiv) {
	values := make([][]float64, len(pop))
	for i := range pop {
		values[i] = pop[i].out.values
	}
	for rank, f := range nonDominatedSort(values) {
		crowd := crowdingDistance(f, values)
		for _, i := range f {
			pop[i].rank = rank
			pop[i].crowd = crowd[i]
		}
	}
}

// tournament is binary tournament selection on (rank, crowding distance),
// ties broken by the lower population index.
func tournament(rng *rand.Rand, pop []indiv) int {
	i, j := rng.Intn(len(pop)), rng.Intn(len(pop))
	switch {
	case pop[i].rank != pop[j].rank:
		if pop[i].rank < pop[j].rank {
			return i
		}
		return j
	case pop[i].crowd != pop[j].crowd:
		if pop[i].crowd > pop[j].crowd {
			return i
		}
		return j
	case i <= j:
		return i
	}
	return j
}
