package arbiter

import (
	"fmt"

	"github.com/mia-rt/mia/internal/model"
)

// WeightedRR models a weighted round-robin bus: in each arbitration round,
// initiator k may be granted up to Weight(k) consecutive accesses before
// the grant moves on. Weighted policies prioritize bandwidth-critical cores
// while staying starvation-free — a common soft spot between plain
// round-robin and fixed priorities.
//
// Worst case for a destination with demand d and per-round quantum q_dst:
// the destination needs ⌈d/q_dst⌉ arbitration rounds, and in every round
// each competitor k can consume up to its own quantum q_k (bounded by its
// total demand):
//
//	IBUS = L · Σ_k min(w_k, ⌈d/q_dst⌉ · q_k)
//
// With all weights 1 this is exactly the flat round-robin bound, which is
// why WeightedRR is a library policy with no Spec name: a command line has
// no way to give it per-core weights.
type WeightedRR struct {
	// WordLatency is the bank service time per access in cycles.
	WordLatency model.Cycles
	// Weight returns the per-round quantum of a core (≥ 1). Nil means
	// weight 1 for every core (plain round-robin).
	Weight func(model.CoreID) int64
}

// NewWeightedRR returns a weighted round-robin arbiter.
func NewWeightedRR(wordLatency model.Cycles, weight func(model.CoreID) int64) *WeightedRR {
	if wordLatency < 1 {
		wordLatency = 1
	}
	return &WeightedRR{WordLatency: wordLatency, Weight: weight}
}

// Name implements Arbiter.
func (w *WeightedRR) Name() string {
	return fmt.Sprintf("weighted-rr(L=%d)", w.WordLatency)
}

func (w *WeightedRR) quantum(c model.CoreID) int64 {
	if w.Weight == nil {
		return 1
	}
	if q := w.Weight(c); q > 0 {
		return q
	}
	return 1
}

// Bound implements Arbiter.
func (w *WeightedRR) Bound(dst Request, competitors []Request, _ model.BankID) model.Cycles {
	if dst.Demand <= 0 || len(competitors) == 0 {
		return 0
	}
	qDst := w.quantum(dst.Core)
	rounds := (int64(dst.Demand) + qDst - 1) / qDst
	var slots model.Accesses
	for _, c := range competitors {
		cap := model.Accesses(rounds * w.quantum(c.Core))
		slots += minAcc(c.Demand, cap)
	}
	return model.ScaleAccesses(slots, w.WordLatency)
}

// Additive implements Arbiter: the bound is a per-competitor sum.
func (w *WeightedRR) Additive() bool { return true }

// BoundOne implements SingleTerm: one competitor's round-capped term.
func (w *WeightedRR) BoundOne(dst, comp Request, _ model.BankID) model.Cycles {
	if dst.Demand <= 0 {
		return 0
	}
	qDst := w.quantum(dst.Core)
	rounds := (int64(dst.Demand) + qDst - 1) / qDst
	cap := model.Accesses(rounds * w.quantum(comp.Core))
	return model.ScaleAccesses(minAcc(comp.Demand, cap), w.WordLatency)
}
