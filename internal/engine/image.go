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
	"context"
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
//   - CSR neighbor lists are sorted by task ID (inherited from the graph's
//     adjacency), so iteration order — and therefore every accumulated
//     result — is deterministic;
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

	// Exactly one of g / raw is set at Compile time. Graph-path images
	// (Compile) carry a frozen private graph clone; decoded images
	// (CompileFromWire, CompileJSON) carry the flat form and only
	// materialize a graph lazily, if NewGraph is ever called —
	// fingerprints and edges are served from the flat form directly,
	// keeping graph assembly off the hot ingest path. Methods branch on
	// raw (never on g, which gOnce may be concurrently populating).
	g     *model.Graph
	raw   *model.RawGraph
	gOnce sync.Once

	fpOnce sync.Once
	fp     string

	// oh fingerprints order overlays from a frozen digest midstate, built
	// once per image: servers and explorers hash an overlay per evaluated
	// scenario, and the static graph sections dominate a full rehash.
	ohOnce sync.Once
	oh     *model.OrderHasher
}

// Compile validates g and flattens it into an immutable problem image
// under the given options. The graph is cloned, so later mutations of g
// (order swaps, demand edits) do not reach the image; recompile to pick
// them up. Validation errors are returned as-is from model.Validate.
func Compile(g *model.Graph, opts sched.Options) (*Image, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	opts.Arbiter = opts.EffectiveArbiter()
	opts.Deadline = opts.EffectiveDeadline()

	n := g.NumTasks()
	words := (g.Banks + 63) / 64
	img := &Image{
		NumTasks:  n,
		Cores:     g.Cores,
		Banks:     g.Banks,
		MaskWords: words,
		Opts:      opts,
		g:         g.Clone(),

		WCET:       make([]model.Cycles, n),
		MinRelease: make([]model.Cycles, n),
		CoreOf:     make([]model.CoreID, n),
		Local:      make([]model.Accesses, n),
		Demand:     make([]model.Accesses, n*g.Banks),
		DemandMask: make([]uint64, n*words),
		SuccStart:  make([]int32, n+1),
		PredStart:  make([]int32, n+1),
		OrderStart: make([]int32, g.Cores+1),
		BankTable:  make([]model.BankID, g.Cores),
		// Edge and order totals are known up front, so the CSR payloads
		// are sized exactly — the appends below never reallocate.
		Succ:     make([]model.TaskID, 0, len(g.Edges())),
		Pred:     make([]model.TaskID, 0, len(g.Edges())),
		OrderIDs: make([]model.TaskID, 0, n),
	}
	for i, t := range g.Tasks() {
		img.WCET[i] = t.WCET
		img.MinRelease[i] = t.MinRelease
		img.CoreOf[i] = t.Core
		img.Local[i] = t.Local
		copy(img.Demand[i*g.Banks:(i+1)*g.Banks], t.Demand)
		mask := img.DemandMask[i*words : (i+1)*words]
		for b, d := range t.Demand {
			if d > 0 {
				mask[b>>6] |= 1 << (uint(b) & 63)
			}
		}
	}
	for i := 0; i < n; i++ {
		img.Succ = append(img.Succ, g.Successors(model.TaskID(i))...)
		img.SuccStart[i+1] = int32(len(img.Succ))
		img.Pred = append(img.Pred, g.Predecessors(model.TaskID(i))...)
		img.PredStart[i+1] = int32(len(img.Pred))
	}
	for k := 0; k < g.Cores; k++ {
		img.OrderIDs = append(img.OrderIDs, g.Order(model.CoreID(k))...)
		img.OrderStart[k+1] = int32(len(img.OrderIDs))
		img.BankTable[k] = g.BankOf(model.CoreID(k))
	}
	return img, nil
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

// Edges returns the dependency edges of the compiled graph. Read-only.
func (img *Image) Edges() []model.Edge {
	if img.raw != nil {
		return img.raw.Edges
	}
	return img.g.Edges()
}

// Fingerprint returns the canonical content hash of the compiled graph
// with its baseline orders (see model.Graph.Fingerprint). Computed once,
// lazily; safe for concurrent use. Decoded and graph-path images of the
// same graph hash identically — model.RawGraph.Fingerprint replicates
// model.Graph.Fingerprint byte for byte.
func (img *Image) Fingerprint() string {
	img.fpOnce.Do(func() {
		if img.raw != nil {
			img.fp = img.raw.Fingerprint()
		} else {
			img.fp = img.g.Fingerprint()
		}
	})
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
	img.ohOnce.Do(func() {
		if img.raw != nil {
			img.oh = img.raw.OrderHasher()
		} else {
			img.oh = img.g.OrderHasher()
		}
	})
	return img.oh
}

// graph returns the image's private graph, materializing it from the flat
// form on first use for decoded images. The raw form passed full
// validation at decode time, so materialization cannot fail; an error here
// is a broken invariant, not an input condition.
func (img *Image) graph() *model.Graph {
	img.gOnce.Do(func() {
		if img.g != nil {
			return
		}
		g, err := img.raw.Graph()
		if err != nil {
			panic("engine: validated decoded image failed graph materialization: " + err.Error())
		}
		img.g = g
	})
	return img.g
}

// NewGraph materializes a fresh mutable graph equal to the compiled one —
// the image-side replacement for defensive g.Clone() at consumer level.
func (img *Image) NewGraph() *model.Graph { return img.graph().Clone() }

// CancelWith resolves the cancellation channel for one analysis run: the
// context's Done channel when the context is cancellable, otherwise the
// channel compiled into the image's options (context.Background reports a
// nil Done channel, which would otherwise mask a caller-provided
// Options.Cancel).
func (img *Image) CancelWith(ctx context.Context) <-chan struct{} {
	if d := ctx.Done(); d != nil {
		return d
	}
	return img.Opts.Cancel
}
