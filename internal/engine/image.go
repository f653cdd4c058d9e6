// Package engine turns a validated task graph into an immutable,
// struct-of-arrays problem image and fronts the analysis algorithms with a
// single façade. Compile once, analyze many times: the image is the
// compile-once/run-many contract that lets sweep workers, search
// evaluators, and server-side warm schedulers share one problem instance
// per graph fingerprint instead of defensively deep-cloning graphs.
//
// An Image is immutable after Compile returns. Nothing in this repository
// writes to its arrays, every accessor returns either a value or a slice
// view the caller must treat as read-only, and the mutable piece of an
// analysis — the per-core execution orders a search permutes — lives in a
// separate per-analyzer Orders overlay. That is what makes sharing sound:
// any number of goroutines may analyze the same Image concurrently, each
// with its own Orders and its own backend state, with no locks.
package engine

import (
	"sync"

	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// Image is the compiled, immutable form of one analysis problem: the graph
// flattened into dense int-indexed arrays, adjacency in CSR form, per-bank
// demand in one flat backing array, and the analysis options normalized
// (arbiter and deadline resolved). All exported fields and every slice
// returned by an accessor are read-only by contract.
//
// Invariants established by Compile and relied on by every backend:
//
//   - the source graph passed Validate: dense task IDs, acyclic
//     dependencies, per-core orders consistent with same-core edges, all
//     magnitudes within model.MaxInput;
//   - Demand rows are zero-extended to exactly Banks entries, so
//     DemandRow(id)[b] is the task's demand on bank b with no bounds
//     checks against ragged per-task rows;
//   - CSR neighbor lists are sorted by task ID (buildAdjacency), so
//     iteration order — and therefore every accumulated result — is
//     deterministic;
//   - Opts.Arbiter is non-nil and Opts.Deadline is positive (Infinity
//     when the caller set none).
type Image struct {
	NumTasks int
	Cores    int
	Banks    int

	// Per-task scalars, indexed by model.TaskID.
	WCET       []model.Cycles
	MinRelease []model.Cycles
	CoreOf     []model.CoreID
	Local      []model.Accesses

	// Demand is the per-bank access demand of every task in one flat
	// task-major backing array: task id's row is
	// Demand[id*Banks : (id+1)*Banks], zero-extended to full width.
	Demand []model.Accesses

	// DemandMask is the bitset form of Demand, one bit per bank: bit b of
	// task id's MaskWords-word row is set iff Demand[id*Banks+b] > 0. Two
	// tasks interfere on exactly the banks in the AND of their rows, so
	// the interference kernels intersect masks word-at-a-time (64 banks
	// per compare — the cache-block unit of the blocked passes) and only
	// touch the demand matrix on set bits, in ascending bank order.
	DemandMask []uint64
	// MaskWords is the per-task word count of DemandMask: ⌈Banks/64⌉.
	MaskWords int

	// CSR adjacency: task id's successors are
	// Succ[SuccStart[id]:SuccStart[id+1]], likewise Pred for the reverse
	// edges. Both neighbor lists are sorted by task ID.
	SuccStart []int32
	Succ      []model.TaskID
	PredStart []int32
	Pred      []model.TaskID

	// Baseline per-core execution orders in CSR form: core k's order is
	// OrderIDs[OrderStart[k]:OrderStart[k+1]]. Analyses that permute
	// orders work on a mutable copy — see NewOrders.
	OrderStart []int32
	OrderIDs   []model.TaskID

	// BankTable maps each core to its private bank.
	BankTable []model.BankID

	// Opts are the compiled analysis options with Arbiter and Deadline
	// resolved to their effective values.
	Opts sched.Options

	// raw is the flat form the image was compiled from; its arrays back
	// the slab fields above. Edges and fingerprints are served from it,
	// and g is materialized from it only if NewGraph is ever called,
	// keeping graph assembly off every compile path.
	raw   *model.RawGraph
	g     *model.Graph
	gOnce sync.Once

	fpOnce sync.Once
	fp     string

	// oh fingerprints order overlays from a frozen digest midstate, built
	// once per image: servers and explorers hash an overlay per evaluated
	// scenario, and the static graph sections dominate a full rehash.
	ohOnce sync.Once
	oh     *model.OrderHasher
}

// Compile validates g and compiles its flat form (model.Graph.Raw) into an
// immutable problem image under the given options, through the same
// compileRaw the decoders use. The flat form is a copy, so later mutations
// of g (order swaps, demand edits) do not reach the image; recompile to
// pick them up. Validation errors are returned as-is from model.Validate.
func Compile(g *model.Graph, opts sched.Options) (*Image, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return compileRaw(g.Raw(), opts), nil
}

// compileRaw builds an image around a flat graph that passed validation —
// Compile validates the graph it flattens, both decoders validate what they
// return. The image adopts raw's backing arrays, so raw must not be mutated
// afterwards.
func compileRaw(raw *model.RawGraph, opts sched.Options) *Image {
	opts.Arbiter = opts.EffectiveArbiter()
	opts.Deadline = opts.EffectiveDeadline()

	n := raw.NumTasks()
	words := (raw.Banks + 63) / 64
	img := &Image{
		NumTasks:  n,
		Cores:     raw.Cores,
		Banks:     raw.Banks,
		MaskWords: words,
		Opts:      opts,
		raw:       raw,

		// Adopted wholesale: the flat layout is the slab layout.
		WCET:       raw.WCET,
		MinRelease: raw.MinRelease,
		CoreOf:     raw.Core,
		Local:      raw.Local,
		Demand:     raw.Demand,
		OrderStart: raw.OrderStart,
		OrderIDs:   raw.OrderIDs,
		BankTable:  raw.BankTable,

		DemandMask: make([]uint64, n*words),
		SuccStart:  make([]int32, n+1),
		PredStart:  make([]int32, n+1),
		Succ:       make([]model.TaskID, len(raw.Edges)),
		Pred:       make([]model.TaskID, len(raw.Edges)),
	}
	fillDemandMask(img.DemandMask, raw.Demand, raw.Banks, words)
	buildAdjacency(img, raw.Edges)
	return img
}

// fillDemandMask sets bit b of each task's mask row iff the task's demand
// on bank b is positive.
//
//mia:hotpath
func fillDemandMask(mask []uint64, demand []model.Accesses, banks, words int) {
	n := len(demand) / banks
	for i := 0; i < n; i++ {
		row := mask[i*words : (i+1)*words]
		dem := demand[i*banks : (i+1)*banks]
		for b, d := range dem {
			if d > 0 {
				row[b>>6] |= 1 << (uint(b) & 63)
			}
		}
	}
}

// buildAdjacency fills the image's CSR successor and predecessor lists from
// the edge list, each neighbor list sorted by task ID — the determinism
// invariant every backend iterates under. Three counting passes, linear
// time, no comparison sort: group targets by source in edge order; walk the
// sources in ascending order appending each to its targets' Pred lists
// (sorted by construction); walk the targets in ascending order rewriting
// Succ from Pred (sorted by construction).
func buildAdjacency(img *Image, edges []model.Edge) {
	if len(edges) == 0 {
		return
	}
	n := img.NumTasks
	for _, e := range edges {
		img.SuccStart[e.From+1]++
		img.PredStart[e.To+1]++
	}
	for i := 0; i < n; i++ {
		img.SuccStart[i+1] += img.SuccStart[i]
		img.PredStart[i+1] += img.PredStart[i]
	}
	fill := make([]int32, n)
	copy(fill, img.SuccStart)
	for _, e := range edges {
		img.Succ[fill[e.From]] = e.To
		fill[e.From]++
	}
	copy(fill, img.PredStart)
	for from := 0; from < n; from++ {
		for _, to := range img.Succs(model.TaskID(from)) {
			img.Pred[fill[to]] = model.TaskID(from)
			fill[to]++
		}
	}
	copy(fill, img.SuccStart)
	for to := 0; to < n; to++ {
		for _, from := range img.Preds(model.TaskID(to)) {
			img.Succ[fill[from]] = model.TaskID(to)
			fill[from]++
		}
	}
}

// DemandRow returns task id's per-bank demand: exactly Banks entries,
// zero-extended. Read-only.
//
//mia:hotpath
func (img *Image) DemandRow(id model.TaskID) []model.Accesses {
	return img.Demand[int(id)*img.Banks : (int(id)+1)*img.Banks]
}

// DemandMaskRow returns task id's per-bank demand bitset: MaskWords words,
// bit b set iff the task demands bank b. Read-only.
//
//mia:hotpath
func (img *Image) DemandMaskRow(id model.TaskID) []uint64 {
	return img.DemandMask[int(id)*img.MaskWords : (int(id)+1)*img.MaskWords]
}

// Succs returns task id's successors sorted by ID. Read-only.
//
//mia:hotpath
func (img *Image) Succs(id model.TaskID) []model.TaskID {
	return img.Succ[img.SuccStart[id]:img.SuccStart[id+1]]
}

// Preds returns task id's predecessors sorted by ID. Read-only.
//
//mia:hotpath
func (img *Image) Preds(id model.TaskID) []model.TaskID {
	return img.Pred[img.PredStart[id]:img.PredStart[id+1]]
}

// PredCount returns the number of direct predecessors of task id.
//
//mia:hotpath
func (img *Image) PredCount(id model.TaskID) int {
	return int(img.PredStart[id+1] - img.PredStart[id])
}

// Order returns core k's baseline execution order. Read-only; analyses
// that permute orders use a NewOrders overlay instead.
//
//mia:hotpath
func (img *Image) Order(k model.CoreID) []model.TaskID {
	return img.OrderIDs[img.OrderStart[k]:img.OrderStart[k+1]]
}

// Edges returns the dependency edges of the compiled graph in source
// order. Read-only.
func (img *Image) Edges() []model.Edge { return img.raw.Edges }

// Fingerprint returns the canonical content hash of the compiled graph
// with its baseline orders (see model.Graph.Fingerprint). Computed once,
// lazily; safe for concurrent use. Every ingest path hashes the same flat
// form, so the JSON, wire and graph paths key one graph identically.
func (img *Image) Fingerprint() string {
	img.fpOnce.Do(func() { img.fp = img.raw.Fingerprint() })
	return img.fp
}

// FingerprintOrders returns the canonical content hash the compiled graph
// would have if its per-core orders were replaced by o: byte-identical to
// cloning the graph, applying the same permutation, and fingerprinting it.
// The static graph sections are hashed once per image (frozen digest
// midstate); each call pays only for the orders section.
//
//mia:hotpath
func (img *Image) FingerprintOrders(o *Orders) string {
	return img.orderHasher().Sum(o.view)
}

// orderHasher lazily builds the image's frozen-midstate hasher. Off the
// hot path proper: the once-guard's fast path is a single atomic load and
// its closure does not escape, so steady-state calls stay allocation-free.
func (img *Image) orderHasher() *model.OrderHasher {
	//mialint:ignore hotpathalloc -- once-guard: the fast path is one atomic load and the non-escaping closure runs at most once per image
	img.ohOnce.Do(func() { img.oh = img.raw.OrderHasher() })
	return img.oh
}

// graph returns the image's private graph, materialized from the flat form
// on first use. The flat form passed full validation before compileRaw, so
// materialization cannot fail; an error here is a broken invariant, not an
// input condition.
func (img *Image) graph() *model.Graph {
	img.gOnce.Do(func() {
		g, err := img.raw.Graph()
		if err != nil {
			panic("engine: validated image failed graph materialization: " + err.Error())
		}
		img.g = g
	})
	return img.g
}

// NewGraph materializes a fresh mutable graph equal to the compiled one.
// Task names are not part of the flat form, so task i comes back named
// "n<i>"; everything the analyses and the fingerprint read is preserved.
func (img *Image) NewGraph() *model.Graph { return img.graph().Clone() }
