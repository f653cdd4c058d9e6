package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/shard"
	"github.com/mia-rt/mia/internal/wire"
)

// whatIfMixed: 3,840-task graphs (60 layers of 64 tasks) registered once
// during setup as wire blobs, then what-if traffic by hash: client 1 sends
// unary /v1/reschedule, client 2 sends /v1/batch with 32 items. Scenarios
// swap independent tasks at positions uniform over the order (see
// scenarioGen); about one batch item in five repeats an earlier item of its
// batch, which the batch memo answers. Graphs are drawn with a seeded
// Zipf-like skew from a set of 12: nine placed on shard 0 — more than its
// single worker's warm LRU holds (8) — and three on shard 1, so shard 0
// misses at a rate the skew sets and shard 1 always hits. Placement is
// planned: shards listen on fixed URLs (shardAddrs), so the ring puts each
// graph where generate predicted, and popularity ranks are interleaved
// the same way for every seed. The set is not larger because every warm
// 3,840-task analyzer holds about 50 MB. Ingest and compile are off the
// measured path: this is the no-change check for cold-ingest work, and
// the reverse.
type whatIfMixed struct {
	graphs []*model.Graph
	blobs  [][]byte
	hashes []string

	unary   []whatIfReq
	batches []whatIfReq
	nextU   atomic.Int64
	nextB   atomic.Int64
}

// whatIfReq is one pre-built request: the graph, its scenarios (one for a
// unary request, 32 for a batch) and the marshaled body.
type whatIfReq struct {
	graph int
	items [][]Swap
	body  []byte
}

const (
	whatIfLayers, whatIfWidth = 60, 64
	whatIfGraphs              = 12
	whatIfBatchItems          = 32
	whatIfDupShare            = 0.2
	// Pools are cycled when a run outlasts them; a repeated unary request
	// re-evaluates (unary replies are not memoized) and a repeated batch
	// has its own per-batch memo only.
	whatIfUnaryPool = 300
	whatIfBatchPool = 60
)

// whatIfPlacement is how many graphs each shard is primary for, and
// whatIfRanks the popularity ranks (0 = most popular) each shard's graphs
// get, in generation order.
var (
	whatIfPlacement = []int{9, 3}
	whatIfRanks     = [][]int{{0, 1, 2, 4, 5, 6, 8, 9, 10}, {3, 7, 11}}
)

func (w *whatIfMixed) generate(seed int64) error {
	ring := shard.NewRing(shardURLs(), 0)
	members := map[string]int{}
	for i, u := range shardURLs() {
		members[u] = i
	}
	need := append([]int(nil), whatIfPlacement...)
	var images []*engine.Image // dropped after scenario generation
	var rank []int
	for c := int64(0); len(w.graphs) < whatIfGraphs; c++ {
		p := gen.NewParams(whatIfLayers, whatIfWidth)
		p.Seed = seed*1_000_003 + c
		g, err := gen.Layered(p)
		if err != nil {
			return err
		}
		img, err := engine.Compile(g, sched.Options{})
		if err != nil {
			return err
		}
		at := members[ring.Order(img.Fingerprint())[0]]
		if need[at] == 0 {
			continue
		}
		rank = append(rank, whatIfRanks[at][whatIfPlacement[at]-need[at]])
		need[at]--
		images = append(images, img)
		w.graphs = append(w.graphs, g)
		w.blobs = append(w.blobs, wire.EncodeGraph(g))
		w.hashes = append(w.hashes, img.Fingerprint())
	}
	rng := rand.New(rand.NewSource(seed))
	// Skew: weight 1/(rank+1).
	cum := make([]float64, whatIfGraphs)
	total := 0.0
	for i := range cum {
		total += 1 / float64(rank[i]+1)
		cum[i] = total
	}
	pick := func() int {
		x := rng.Float64() * total
		for i, c := range cum {
			if x < c {
				return i
			}
		}
		return whatIfGraphs - 1
	}
	gens := make([]*scenarioGen, whatIfGraphs)
	for i := range gens {
		gens[i] = newScenarioGen(images[i], seed*7919+int64(i))
	}
	for i := 0; i < whatIfUnaryPool; i++ {
		g := pick()
		sc := gens[g].scenario()
		body, _ := json.Marshal(struct {
			Hash  string `json:"hash"`
			Swaps []Swap `json:"swaps"`
		}{w.hashes[g], sc})
		w.unary = append(w.unary, whatIfReq{graph: g, items: [][]Swap{sc}, body: body})
	}
	for i := 0; i < whatIfBatchPool; i++ {
		g := pick()
		items := gens[g].batch(whatIfBatchItems, whatIfDupShare)
		body, err := batchBody(w.hashes[g], items)
		if err != nil {
			return err
		}
		w.batches = append(w.batches, whatIfReq{graph: g, items: items, body: body})
	}
	return nil
}

// batchBody is the hash-form /v1/batch body. Its compact encoding is
// exactly what the router re-serializes for the shard, so span joining can
// match them by body hash.
func batchBody(hash string, items [][]Swap) ([]byte, error) {
	type item struct {
		Swaps []Swap `json:"swaps"`
	}
	req := struct {
		Hash  string `json:"hash"`
		Items []item `json:"items"`
	}{Hash: hash}
	for _, it := range items {
		req.Items = append(req.Items, item{Swaps: it})
	}
	return json.Marshal(req)
}

func (w *whatIfMixed) prepare(f *fleet, tr *tracer) error {
	for i, blob := range w.blobs {
		o := f.do(tr, "POST", "/v1/analyze", "application/x-mia-wire", blob)
		o.kind = "register"
		if err := unaryOK(o); err != nil {
			return fmt.Errorf("whatif-mixed: registering graph %d: %w", i, err)
		}
		var r scheduleReply
		if err := json.Unmarshal(o.body, &r); err != nil || r.Hash != w.hashes[i] {
			return fmt.Errorf("whatif-mixed: graph %d registered under hash %.16s, want %.16s", i, r.Hash, w.hashes[i])
		}
	}
	return nil
}

func (w *whatIfMixed) clients() []func(*fleet, *tracer) *op {
	unary := func(f *fleet, tr *tracer) *op {
		i := int(w.nextU.Add(1)-1) % len(w.unary)
		o := f.do(tr, "POST", "/v1/reschedule", "application/json", w.unary[i].body)
		o.kind, o.ref = "unary", i
		return o
	}
	batch := func(f *fleet, tr *tracer) *op {
		i := int(w.nextB.Add(1)-1) % len(w.batches)
		o := f.do(tr, "POST", "/v1/batch", "application/json", w.batches[i].body)
		o.kind, o.ref, o.items = "batch", i, whatIfBatchItems
		return o
	}
	return []func(*fleet, *tracer) *op{unary, batch}
}

func (w *whatIfMixed) validate(o *op) error {
	if err := unaryOK(o); err != nil || o.kind != "batch" {
		return err
	}
	results, err := parseBatch(o.body, whatIfBatchItems)
	if err != nil {
		return err
	}
	// Items with equal swap lists reach the same configuration and must
	// carry byte-identical results (the memo's contract).
	items := w.batches[o.ref].items
	first := map[string]int{}
	for i, it := range items {
		key := fmt.Sprint(it)
		if j, ok := first[key]; ok {
			if string(results[i]) != string(results[j]) {
				return fmt.Errorf("batch item %d repeats item %d but its result differs", i, j)
			}
			continue
		}
		first[key] = i
	}
	return nil
}

// check compares sampled unary replies and sampled batch lines with a cold
// in-process analysis of the edited graph.
func (w *whatIfMixed) check(ops []*op, seed int64) (map[*op]error, error) {
	wrong := map[*op]error{}
	verify := func(o *op, graph int, swaps []Swap, reply []byte) error {
		want, err := oracleReply(editedGraph(w.graphs[graph], swaps))
		if err != nil {
			return err
		}
		got, err := parseSchedule(reply)
		if err != nil {
			wrong[o] = err
			return nil
		}
		if err := sameSchedule(got, want); err != nil {
			wrong[o] = err
		}
		return nil
	}
	for _, o := range sampleOps(okOps(opsOf(ops, "unary")), 16, seed) {
		r := w.unary[o.ref]
		if err := verify(o, r.graph, r.items[0], o.body); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, o := range sampleOps(okOps(opsOf(ops, "batch")), 4, seed+1) {
		r := w.batches[o.ref]
		results, err := parseBatch(o.body, len(r.items))
		if err != nil {
			wrong[o] = err
			continue
		}
		for _, i := range rng.Perm(len(r.items))[:4] {
			if err := verify(o, r.graph, r.items[i], results[i]); err != nil {
				return nil, err
			}
		}
	}
	return wrong, nil
}

func (w *whatIfMixed) report(r *runResult) []metric {
	un := okOps(opsOf(r.ops, "unary"))
	ba := okOps(opsOf(r.ops, "batch"))
	out := latencyMetrics("unary", un, "ms", 1)
	out = append(out, latencyMetrics("batch", ba, "ms", 1)[0])
	out = append(out, metric{name: "batch_items_per_s", value: float64(len(ba)*whatIfBatchItems) / r.elapsed.Seconds(),
		unit: "1/s", note: fmt.Sprintf("%d batches of %d", len(ba), whatIfBatchItems)})
	return out
}
