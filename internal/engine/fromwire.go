package engine

import (
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/wire"
)

// CompileFromWire decodes a binary wire blob straight into a problem image.
// It is the hot ingest path of the analysis service: wire.Decode validates
// structure and values once (exactly as strictly as the JSON path — see
// wire's package comment), and the decoded flat arrays are the image's slab
// layout already, so they are adopted without copying. Only the derived
// structures the wire format deliberately omits are built here: the demand
// bitset masks and the CSR adjacency, both in linear time. No intermediate
// model.Graph is allocated; images needing one (NewGraph) materialize it
// lazily.
//
// The resulting image is indistinguishable from Compile on the same graph:
// identical Fingerprint, identical analysis output from every backend, cold
// and warm.
func CompileFromWire(data []byte, opts sched.Options) (*Image, error) {
	raw, err := wire.Decode(data)
	if err != nil {
		return nil, err
	}
	return compileRaw(raw, opts), nil
}

// CompileJSON decodes a graph JSON document straight into a problem image:
// the JSON twin of CompileFromWire. model.DecodeJSON scans the document
// once into the flat form — validating it exactly as Builder would — and
// the image adopts those arrays as its slab, so no model.Graph is built on
// the way. The image is indistinguishable from Compile on the graph
// model.ReadJSON returns for the same bytes.
func CompileJSON(data []byte, opts sched.Options) (*Image, error) {
	raw, err := model.DecodeJSON(data)
	if err != nil {
		return nil, err
	}
	return compileRaw(raw, opts), nil
}

// compileRaw builds an image around a flat graph that passed
// RawGraph.Validate — both decoders validate what they return. The image
// adopts raw's backing arrays, so raw must not be mutated afterwards.
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

		// Adopted wholesale: the wire layout is the slab layout.
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
	buildAdjacency(img, raw.Edges, n)
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

// buildAdjacency fills the image's CSR successor/predecessor lists from the
// edge list with each neighbor list sorted by task ID — the determinism
// invariant every backend iterates under. Two passes of counting sort per
// direction (stable bucket-by-minor, then bucket-by-major) yield sorted
// groups in linear time with no comparison sort and no per-task slices.
func buildAdjacency(img *Image, edges []model.Edge, n int) {
	if len(edges) == 0 {
		return
	}
	// byTo: edge indices stably ordered by ascending To (counting sort).
	cnt := make([]int32, n+1)
	for _, e := range edges {
		cnt[e.To+1]++
	}
	for i := 0; i < n; i++ {
		cnt[i+1] += cnt[i]
	}
	byTo := make([]int32, len(edges))
	for i, e := range edges {
		byTo[cnt[e.To]] = int32(i)
		cnt[e.To]++
	}
	// Succ: bucket byTo by From. Stability keeps each From group in
	// ascending-To order, i.e. Succs(id) sorted by ID.
	for i := range cnt {
		cnt[i] = 0
	}
	for _, e := range edges {
		cnt[e.From+1]++
	}
	for i := 0; i < n; i++ {
		cnt[i+1] += cnt[i]
		img.SuccStart[i+1] = cnt[i+1]
	}
	for _, idx := range byTo {
		e := edges[idx]
		img.Succ[cnt[e.From]] = e.To
		cnt[e.From]++
	}
	// Pred: the mirror image — stably order by From, bucket by To.
	for i := range cnt {
		cnt[i] = 0
	}
	for _, e := range edges {
		cnt[e.From+1]++
	}
	for i := 0; i < n; i++ {
		cnt[i+1] += cnt[i]
	}
	byFrom := byTo // reuse: overwritten in full before it is read back
	for i, e := range edges {
		byFrom[cnt[e.From]] = int32(i)
		cnt[e.From]++
	}
	for i := range cnt {
		cnt[i] = 0
	}
	for _, e := range edges {
		cnt[e.To+1]++
	}
	for i := 0; i < n; i++ {
		cnt[i+1] += cnt[i]
		img.PredStart[i+1] = cnt[i+1]
	}
	for _, idx := range byFrom {
		e := edges[idx]
		img.Pred[cnt[e.To]] = e.From
		cnt[e.To]++
	}
}

// WireBytes encodes the compiled image back into a wire blob — the flat
// arrays are re-wrapped as a RawGraph view (no copying) and serialized.
// Decoding the blob yields an image with the same fingerprint and analysis
// behavior, which is the image↔wire invariant DESIGN §3.8 documents.
func (img *Image) WireBytes() []byte {
	if img.raw != nil {
		return wire.Encode(img.raw)
	}
	return wire.Encode(&model.RawGraph{
		Cores:      img.Cores,
		Banks:      img.Banks,
		WCET:       img.WCET,
		MinRelease: img.MinRelease,
		Core:       img.CoreOf,
		Local:      img.Local,
		Demand:     img.Demand,
		Edges:      img.g.Edges(),
		OrderStart: img.OrderStart,
		OrderIDs:   img.OrderIDs,
		BankTable:  img.BankTable,
	})
}
