// Package arbiter models shared-memory bus arbitration policies as
// interference-bound functions: the IBUS of Algorithm 1 in the paper.
//
// An Arbiter answers one question: given that a destination initiator wants
// to perform d accesses on a bank, and a set of competing initiators each
// wants to perform w_i accesses on the same bank during an overlapping time
// window, by how many cycles can the destination be delayed in the worst
// case? The answer must be monotone in the competitor set — adding a
// competitor can only increase the bound — which is the hypothesis
// (Section II.C) that makes the paper's incremental algorithm sound.
//
// Competitors are expressed per initiator (core), not per task: when several
// tasks of the same core compete with the destination over its lifetime,
// their demands are summed into a single competitor entry. This is the
// paper's "single big task" hypothesis, which it reports to be *less*
// pessimistic than treating the tasks separately (for round-robin,
// min(Σw, d) ≤ Σ min(w, d)). The schedulers can disable merging to quantify
// that claim (see the ablation benchmarks).
package arbiter

import "github.com/mia-rt/mia/internal/model"

// Request is the demand of one initiator on one memory bank: the initiator's
// core and the number of accesses it performs on the bank within the
// analyzed window.
type Request struct {
	Core   model.CoreID
	Demand model.Accesses
}

// Arbiter is a bus-arbitration policy reduced to its worst-case
// interference-bound function.
type Arbiter interface {
	// Name identifies the policy in logs and benchmark tables.
	Name() string

	// Bound returns an upper bound on the delay, in cycles, suffered by
	// dst's accesses on bank b given the competing demands. It must be
	// monotone and subadditive-safe: Bound(dst, W) ≤ Bound(dst, W∪{x}),
	// and Bound(dst, ∅) = 0.
	Bound(dst Request, competitors []Request, b model.BankID) model.Cycles

	// Additive reports whether the policy's bound decomposes per
	// competitor: Bound(dst, W) = Σ_{x∈W} Bound(dst, {x}). Additive
	// policies admit an O(1) incremental update when a competitor's demand
	// grows, which the incremental scheduler exploits as a fast path
	// (the speed-up the paper's Section II.C anticipates).
	Additive() bool
}

// SingleTerm is an optional extension for additive policies: a direct
// evaluation of the per-competitor term Bound(dst, {comp}, b) without
// building a one-element slice. The incremental scheduler's cached-IBUS fast
// path calls it once per interferer update, so avoiding the slice round trip
// (and the escape of the scratch buffer through the interface) measurably
// trims the per-event constant.
//
// Implementations must satisfy BoundOne(dst, comp, b) ==
// Bound(dst, []Request{comp}, b) exactly; the arbiter test suite
// cross-checks the two on random requests.
type SingleTerm interface {
	BoundOne(dst, comp Request, b model.BankID) model.Cycles
}

// One evaluates the single-competitor bound Bound(dst, {comp}, b), through
// the policy's direct BoundOne when implemented and through the general
// Bound with the caller's scratch buffer (len ≥ 1) otherwise.
func One(a Arbiter, dst, comp Request, b model.BankID, scratch []Request) model.Cycles {
	if st, ok := a.(SingleTerm); ok {
		return st.BoundOne(dst, comp, b)
	}
	scratch[0] = comp
	return a.Bound(dst, scratch[:1], b)
}

func minAcc(a, b model.Accesses) model.Accesses {
	if a < b {
		return a
	}
	return b
}
