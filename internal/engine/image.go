// Package engine turns a validated task graph into an immutable,
// struct-of-arrays problem image and resolves the analysis algorithms
// (Backends) by name. Compile once, analyze many times: the image is the
// compile-once/run-many contract that lets sweep workers, search
// evaluators, and server-side warm schedulers share one problem instance
// per graph fingerprint instead of defensively deep-cloning graphs.
//
// An Image is immutable once compiled. Nothing in this repository
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

// Image is the compiled, immutable form of one analysis problem: the
// graph's flat form (model.RawGraph, embedded by value, so WCET, Core,
// Demand, Edges, DemandRow and Order are its own), the adjacency of its
// edges in CSR form, the per-bank demand bitsets, and the analysis options
// normalized (arbiter and deadline resolved). All exported fields and every
// slice returned by an accessor are read-only by contract.
//
// Invariants every compile path establishes and every backend relies on:
//
//   - the flat form passed Validate: dense task IDs, acyclic
//     dependencies, per-core orders consistent with same-core edges, all
//     magnitudes within model.MaxInput;
//   - Demand rows are exactly Banks entries wide, so DemandRow(id)[b] is
//     the task's demand on bank b with no per-row bounds checks;
//   - CSR neighbor lists are sorted by task ID (model.NewAdjacency), so
//     iteration order — and therefore every accumulated result — is
//     deterministic;
//   - Opts.Arbiter is non-nil and Opts.Deadline is positive (Infinity
//     when the caller set none).
type Image struct {
	// RawGraph is the flat form the image was compiled from, adopted
	// without copying: its arrays are the image's slab.
	model.RawGraph

	// NumTasks is the task count, len(WCET).
	NumTasks int

	// DemandMask is the bitset form of Demand, one bit per bank: bit b of
	// task id's MaskWords-word row is set iff Demand[id*Banks+b] > 0. Two
	// tasks interfere on exactly the banks in the AND of their rows, so
	// the incremental scheduler's interference exchange intersects masks
	// word-at-a-time (64 banks per compare) and only touches the demand
	// matrix on set bits, in ascending bank order.
	DemandMask []uint64
	// MaskWords is the per-task word count of DemandMask: ⌈Banks/64⌉.
	MaskWords int

	// Adjacency is the CSR successor and predecessor lists of the edges,
	// each sorted by task ID (model.NewAdjacency): Succs, Preds and
	// PredCount are its accessors.
	model.Adjacency

	// Opts are the compiled analysis options with Arbiter and Deadline
	// resolved to their effective values.
	Opts sched.Options

	fpOnce sync.Once
	fp     string

	// oh fingerprints order overlays from a frozen digest midstate, built
	// once per image: servers and explorers hash an overlay per evaluated
	// scenario, and the static graph sections dominate a full rehash.
	ohOnce sync.Once
	oh     *model.OrderHasher
}

// Compile validates g and compiles a copy of its flat form (g.Raw()) into
// an immutable problem image under the given options. Because the image
// adopts a copy, later edits of g (order swaps, demand or WCET edits) do
// not reach the image; recompile to pick them up.
func Compile(g *model.Graph, opts sched.Options) (*Image, error) {
	return CompileRaw(g.Raw().Clone(), opts)
}

// CompileRaw validates raw and compiles it into an immutable problem image
// under the given options. The image adopts raw's arrays without copying
// them, so raw must not be mutated afterwards. Validation errors are
// returned as-is from model.RawGraph.Validate.
func CompileRaw(raw *model.RawGraph, opts sched.Options) (*Image, error) {
	if err := raw.Validate(); err != nil {
		return nil, err
	}
	return compileRaw(raw, opts), nil
}

// compileRaw builds an image around a flat graph that passed validation —
// CompileRaw validates it, both decoders validate what they return. The
// image adopts raw's backing arrays, so raw must not be mutated afterwards.
func compileRaw(raw *model.RawGraph, opts sched.Options) *Image {
	opts.Arbiter = opts.EffectiveArbiter()
	opts.Deadline = opts.EffectiveDeadline()

	n := raw.NumTasks()
	words := (raw.Banks + 63) / 64
	img := &Image{
		RawGraph:   *raw,
		NumTasks:   n,
		MaskWords:  words,
		Opts:       opts,
		DemandMask: make([]uint64, n*words),
		Adjacency:  model.NewAdjacency(n, raw.Edges),
	}
	fillDemandMask(img.DemandMask, raw.Demand, raw.Banks, words)
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

// DemandMaskRow returns task id's per-bank demand bitset: MaskWords words,
// bit b set iff the task demands bank b. Read-only.
//
//mia:hotpath
func (img *Image) DemandMaskRow(id model.TaskID) []uint64 {
	return img.DemandMask[int(id)*img.MaskWords : (int(id)+1)*img.MaskWords]
}

// Fingerprint returns the canonical content hash of the compiled graph
// with its baseline orders (see model.RawGraph.Fingerprint). Computed once,
// lazily; safe for concurrent use. Every ingest path hashes the same flat
// form, so the JSON, wire and graph paths key one graph identically.
func (img *Image) Fingerprint() string {
	img.fpOnce.Do(func() { img.fp = img.RawGraph.Fingerprint() })
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
	img.ohOnce.Do(func() { img.oh = img.RawGraph.OrderHasher() })
	return img.oh
}

// NewGraph returns a fresh mutable graph equal to the compiled one: a copy
// of the image's flat form, so editing it never reaches the image. Task
// names are not part of the flat form, so task i comes back named "n<i>";
// everything the analyses and the fingerprint read is preserved.
func (img *Image) NewGraph() *model.Graph { return model.NewGraph(img.RawGraph.Clone(), nil) }
