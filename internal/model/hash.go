package model

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// fingerprintVersion is folded into every fingerprint so the hash changes
// whenever the canonical serialization below changes shape. Bump it when
// adding or reordering fields.
const fingerprintVersion = 1

// Fingerprint returns the canonical content hash of the graph: a hex-encoded
// SHA-256 over the platform shape, every task's scheduling-relevant fields
// (WCET, core, minimal release, compiled per-bank demand), the dependency
// edges with their volumes, the per-core execution orders, and the core→bank
// assignment. Two graphs with equal fingerprints are indistinguishable to
// every scheduler in this repository — same inputs, same analysis, same
// Result — which is what lets the analysis service key warm scheduler
// checkpoints and cached parsed graphs by fingerprint alone.
//
// Task names are deliberately excluded (they are diagnostics, not inputs),
// as is everything derivable from the hashed fields (adjacency, stats).
func (g *Graph) Fingerprint() string {
	w := &digestWriter{h: sha256.New()}
	w.int(fingerprintVersion)
	w.int(int64(g.Cores))
	w.int(int64(g.Banks))

	w.int(int64(len(g.tasks)))
	for _, t := range g.tasks {
		w.int(int64(t.WCET))
		w.int(int64(t.Core))
		w.int(int64(t.MinRelease))
		w.int(int64(t.Local))
		w.int(int64(len(t.Demand)))
		for _, d := range t.Demand {
			w.int(int64(d))
		}
	}

	w.int(int64(len(g.edges)))
	for _, e := range g.edges {
		w.int(int64(e.From))
		w.int(int64(e.To))
		w.int(int64(e.Words))
	}

	hashOrders(w, g.order)
	for k := 0; k < g.Cores; k++ {
		w.int(int64(g.BankOf(CoreID(k))))
	}
	return w.sum()
}

// hashOrders feeds the orders section of the canonical serialization.
func hashOrders(w *digestWriter, orders [][]TaskID) {
	w.int(int64(len(orders)))
	for _, order := range orders {
		w.int(int64(len(order)))
		for _, id := range order {
			w.int(int64(id))
		}
	}
}

// OrderHasher fingerprints order overlays of one fixed graph (see
// RawGraph.OrderHasher). It snapshots the SHA-256 midstate after the static
// sections (platform shape, tasks, edges) once, so each Sum hashes only the
// orders section and the bank table — the per-scenario cost of
// fingerprinting an edit drops from O(graph) to O(tasks). Sum(orders) is
// byte-identical to Fingerprint of the graph with its orders replaced by
// orders; the differential suites pin this.
//
// An OrderHasher is immutable after construction and safe for concurrent
// Sum calls.
type OrderHasher struct {
	state []byte  // marshaled digest midstate after the static sections
	bank  []int64 // bank-table suffix hashed after the orders section
}

// newOrderHasher freezes the digest midstate after flushing w. The stdlib
// SHA-256 digest implements encoding.BinaryMarshaler and never fails; a
// failure here is a broken invariant, not an input condition.
func newOrderHasher(w *digestWriter, bank []int64) *OrderHasher {
	w.flush()
	m, ok := w.h.(encoding.BinaryMarshaler)
	if !ok {
		panic("model: sha256 digest does not marshal")
	}
	state, err := m.MarshalBinary()
	if err != nil {
		//mialint:ignore hotpathalloc -- panic path for a broken marshal invariant; never taken in steady state
		panic("model: marshaling sha256 midstate: " + err.Error())
	}
	//mialint:ignore hotpathalloc -- constructor: the frozen hasher is built once per graph and reused by every Sum
	return &OrderHasher{state: state, bank: bank}
}

// Sum returns the fingerprint of the graph with its orders replaced by
// orders, resuming from the frozen midstate.
//
//mia:hotpath
func (oh *OrderHasher) Sum(orders [][]TaskID) string {
	var w digestWriter
	w.h = sha256.New()
	restoreMidstate(w.h, oh.state)
	hashOrders(&w, orders)
	for _, b := range oh.bank {
		w.int(b)
	}
	return w.sum()
}

// restoreMidstate rewinds a fresh digest to a frozen midstate. Restoring a
// state the same stdlib digest produced never fails; a failure here is a
// broken invariant, not an input condition.
func restoreMidstate(h hash.Hash, state []byte) {
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		//mialint:ignore hotpathalloc -- panic path for a broken midstate invariant; never taken in steady state
		panic("model: restoring sha256 midstate: " + err.Error())
	}
}

// digestWriter feeds the canonical serialization into a digest: every
// integer in fixed-width little-endian form, so field boundaries are
// unambiguous regardless of value magnitude. Integers are batched through
// a fixed buffer and written a block at a time — one Write per 64
// integers instead of one heap-escaping 8-byte array per integer. SHA-256
// does not depend on how its input is split across writes, so the digest
// is byte-identical to hashing the integers one by one.
type digestWriter struct {
	h   hash.Hash
	n   int
	buf [512]byte
}

// int appends one integer to the serialization.
func (w *digestWriter) int(v int64) {
	if w.n == len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], uint64(v))
	w.n += 8
}

// flush writes the buffered integers to the digest.
func (w *digestWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

// sum flushes and returns the hex-encoded digest.
func (w *digestWriter) sum() string {
	w.flush()
	return hex.EncodeToString(w.h.Sum(nil))
}
