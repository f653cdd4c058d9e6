package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/wire"
)

// TestWireIngestBitIdentical is the wire path's round-trip property test:
// over the full differential corpus, an image ingested from a binary wire
// blob (Graph → wire.EncodeGraph → CompileFromWire) is indistinguishable
// from one compiled off the JSON ingestion path (WriteJSON → ReadJSON →
// Compile) — same Fingerprint, and bit-identical analysis output from both
// backends, cold and warm.
func TestWireIngestBitIdentical(t *testing.T) {
	ctx := context.Background()
	backends := map[string]engine.Backend{
		"incremental": engine.MustNew(engine.Incremental),
		"fixpoint":    engine.MustNew(engine.Fixpoint),
	}
	corpus := diffCorpus()
	if len(corpus) < 200 {
		t.Fatalf("corpus has %d instances, want ≥ 200", len(corpus))
	}
	for ci, p := range corpus {
		g := gen.MustLayered(p)
		opts := corpusOpts(ci)
		label := fmt.Sprintf("corpus[%d] %d layers × %d, %d×%d shared=%v",
			ci, p.Layers, p.LayerSize, p.Cores, p.Banks, p.SharedBank)

		// JSON leg: serialize, re-read, compile — the service's JSON path.
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: WriteJSON: %v", label, err)
		}
		gj, err := model.ReadJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadJSON: %v", label, err)
		}
		jsonImg, err := engine.Compile(gj, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", label, err)
		}

		// Wire leg: binary blob, zero-graph ingest.
		wireImg, err := engine.CompileFromWire(wire.EncodeGraph(g), opts)
		if err != nil {
			t.Fatalf("%s: CompileFromWire: %v", label, err)
		}

		if got, want := wireImg.Fingerprint(), jsonImg.Fingerprint(); got != want {
			t.Fatalf("%s: wire fingerprint %s, json %s", label, got, want)
		}

		for name, be := range backends {
			wantCold, err := be.Analyze(ctx, jsonImg)
			if err != nil {
				t.Fatalf("%s/%s: json cold: %v", label, name, err)
			}
			gotCold, err := be.Analyze(ctx, wireImg)
			if err != nil {
				t.Fatalf("%s/%s: wire cold: %v", label, name, err)
			}
			identical(t, label+"/"+name+"/cold", gotCold, wantCold)

			ww := be.NewWarm(wireImg)
			gotWarm, err := ww.Analyze(ctx)
			if err != nil {
				t.Fatalf("%s/%s: wire warm: %v", label, name, err)
			}
			identical(t, label+"/"+name+"/warm", gotWarm, wantCold)

			// Warm replay after an edit on both images must agree too —
			// the wire image's order overlay machinery is the same code,
			// but the CSR baselines it copies from were built differently.
			if core, pos, ok := legalSwapImage(wireImg); ok {
				wj := be.NewWarm(jsonImg)
				if _, err := wj.Analyze(ctx); err != nil {
					t.Fatalf("%s/%s: json warm baseline: %v", label, name, err)
				}
				wj.Orders().Swap(core, pos)
				ww.Orders().Swap(core, pos)
				edit := engine.Edit{Core: core, From: pos}
				wantEdit, err := wj.Reschedule(ctx, edit)
				if err != nil {
					t.Fatalf("%s/%s: json reschedule: %v", label, name, err)
				}
				gotEdit, err := ww.Reschedule(ctx, edit)
				if err != nil {
					t.Fatalf("%s/%s: wire reschedule: %v", label, name, err)
				}
				identical(t, label+"/"+name+"/edited", gotEdit, wantEdit)
				if got, want := wireImg.FingerprintOrders(ww.Orders()), jsonImg.FingerprintOrders(wj.Orders()); got != want {
					t.Fatalf("%s/%s: edited fingerprints diverge: %s vs %s", label, name, got, want)
				}
			}
		}
	}
}

// legalSwapImage finds an adjacent swap that keeps same-core dependency
// order intact on a compiled image: positions pos/pos+1 on some core with
// no dependency between the swapped tasks.
func legalSwapImage(img *engine.Image) (model.CoreID, int, bool) {
	for k := 0; k < img.Cores; k++ {
		order := img.Order(model.CoreID(k))
		for pos := 0; pos+1 < len(order); pos++ {
			a, b := order[pos], order[pos+1]
			dep := false
			for _, s := range img.Succs(a) {
				if s == b {
					dep = true
					break
				}
			}
			if !dep {
				return model.CoreID(k), pos, true
			}
		}
	}
	return 0, 0, false
}

// TestCompileFromWireRejects: the ingest path refuses what the JSON path
// refuses, at the same layer (decode, before any image exists).
func TestCompileFromWireRejects(t *testing.T) {
	if _, err := engine.CompileFromWire([]byte("junk"), corpusOpts(0)); err == nil {
		t.Fatal("CompileFromWire accepted junk")
	}
	r := gen.Figure1().Raw()
	r.WCET[0] = model.MaxInput + 1
	if _, err := engine.CompileFromWire(wire.Encode(r), corpusOpts(0)); err == nil {
		t.Fatal("CompileFromWire accepted a past-MaxInput WCET")
	}
}

// TestJSONIngestBitIdentical is the CompileJSON twin of
// TestWireIngestBitIdentical: over the full differential corpus, an image
// ingested straight from graph JSON is indistinguishable from Compile on
// the graph Builder assembles from the same tasks, edges and orders — same
// Fingerprint, and bit-identical analysis output from both backends, cold,
// warm, and after an edit. WriteJSON always writes every core's order, so
// two variants drop orders to reach the default-order path: one with no
// "order" key at all and one listing orders for the first half of the
// cores only. The reference fills the missing orders through Builder's own
// topological default, independently of the scanner. The source graph has
// one legal adjacent swap applied, so a listed order is not the default
// order and the partial variant mixes both kinds.
func TestJSONIngestBitIdentical(t *testing.T) {
	ctx := context.Background()
	backends := map[string]engine.Backend{
		"incremental": engine.MustNew(engine.Incremental),
		"fixpoint":    engine.MustNew(engine.Fixpoint),
	}
	corpus := diffCorpus()
	if len(corpus) < 200 {
		t.Fatalf("corpus has %d instances, want ≥ 200", len(corpus))
	}
	for ci, p := range corpus {
		g := gen.MustLayered(p)
		if core, pos, ok := legalSwap(g); ok {
			g.SwapOrder(core, pos)
		}
		opts := corpusOpts(ci)
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatalf("corpus[%d]: WriteJSON: %v", ci, err)
		}
		for _, keep := range []int{g.Cores, 0, g.Cores / 2} {
			label := fmt.Sprintf("corpus[%d] %d layers × %d, %d×%d, orders for %d of %d cores",
				ci, p.Layers, p.LayerSize, p.Cores, p.Banks, keep, g.Cores)
			doc := buf.Bytes()
			if keep < g.Cores {
				doc = withOrders(t, doc, keep)
			}
			jsonImg, err := engine.CompileJSON(doc, opts)
			if err != nil {
				t.Fatalf("%s: CompileJSON: %v", label, err)
			}
			refImg, err := engine.Compile(rebuildWithOrders(t, g, keep), opts)
			if err != nil {
				t.Fatalf("%s: compile reference: %v", label, err)
			}
			if got, want := jsonImg.Fingerprint(), refImg.Fingerprint(); got != want {
				t.Fatalf("%s: json fingerprint %s, reference %s", label, got, want)
			}
			if keep == g.Cores && jsonImg.Fingerprint() != g.Fingerprint() {
				t.Fatalf("%s: json fingerprint %s, source graph %s", label, jsonImg.Fingerprint(), g.Fingerprint())
			}
			for name, be := range backends {
				wantCold, err := be.Analyze(ctx, refImg)
				if err != nil {
					t.Fatalf("%s/%s: reference cold: %v", label, name, err)
				}
				gotCold, err := be.Analyze(ctx, jsonImg)
				if err != nil {
					t.Fatalf("%s/%s: json cold: %v", label, name, err)
				}
				identical(t, label+"/"+name+"/cold", gotCold, wantCold)

				wj := be.NewWarm(jsonImg)
				gotWarm, err := wj.Analyze(ctx)
				if err != nil {
					t.Fatalf("%s/%s: json warm: %v", label, name, err)
				}
				identical(t, label+"/"+name+"/warm", gotWarm, wantCold)

				if core, pos, ok := legalSwapImage(jsonImg); ok {
					wr := be.NewWarm(refImg)
					if _, err := wr.Analyze(ctx); err != nil {
						t.Fatalf("%s/%s: reference warm baseline: %v", label, name, err)
					}
					wr.Orders().Swap(core, pos)
					wj.Orders().Swap(core, pos)
					edit := engine.Edit{Core: core, From: pos}
					// A second swap can deadlock across cores; both images
					// must then report the same verdict.
					wantEdit, werr := wr.Reschedule(ctx, edit)
					gotEdit, gerr := wj.Reschedule(ctx, edit)
					switch {
					case fmt.Sprint(werr) != fmt.Sprint(gerr):
						t.Fatalf("%s/%s: edited verdicts diverge: json %v, reference %v", label, name, gerr, werr)
					case werr == nil:
						identical(t, label+"/"+name+"/edited", gotEdit, wantEdit)
					}
					if got, want := jsonImg.FingerprintOrders(wj.Orders()), refImg.FingerprintOrders(wr.Orders()); got != want {
						t.Fatalf("%s/%s: edited fingerprints diverge: %s vs %s", label, name, got, want)
					}
				}
			}
		}
	}
}

// withOrders rewrites a graph document to list execution orders for its
// first keep cores only (no "order" key when keep is 0).
func withOrders(t *testing.T, doc []byte, keep int) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatal(err)
	}
	var orders []json.RawMessage
	if err := json.Unmarshal(m["order"], &orders); err != nil {
		t.Fatal(err)
	}
	delete(m, "order")
	if keep > 0 {
		kept, err := json.Marshal(orders[:keep])
		if err != nil {
			t.Fatal(err)
		}
		m["order"] = kept
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rebuildWithOrders assembles g's tasks and edges through Builder, fixing
// the orders of the first keep cores to g's and leaving the rest to
// Builder's topological default — the graph a document with only those
// orders describes. Demands recompile under the default policy, which is
// the policy every corpus platform uses (shared corpora have one bank).
func rebuildWithOrders(t *testing.T, g *model.Graph, keep int) *model.Graph {
	t.Helper()
	b := model.NewBuilder(g.Cores, g.Banks)
	for _, task := range g.Tasks() {
		b.AddTask(model.TaskSpec{Name: task.Name, WCET: task.WCET, Core: task.Core, MinRelease: task.MinRelease, Local: task.Local})
	}
	for _, e := range g.Edges() {
		b.AddEdge(e.From, e.To, e.Words)
	}
	for k := 0; k < keep; k++ {
		b.SetOrder(model.CoreID(k), g.Order(model.CoreID(k)))
	}
	ref, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}
