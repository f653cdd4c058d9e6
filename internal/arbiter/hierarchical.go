package arbiter

import (
	"fmt"

	"github.com/mia-rt/mia/internal/model"
)

// HierarchicalRR models a two-level round-robin arbitration tree, as found
// in the Kalray MPPA-256 compute cluster where processing elements reach a
// memory bank through paired first-level arbiters feeding a top-level
// round-robin stage.
//
// Cores are partitioned into groups of GroupSize consecutive cores
// (cores k and k+1 share a group when GroupSize = 2, the MPPA pairing).
// An access from the destination competes:
//
//   - at level 1, with the demand of each other core in its own group
//     (one delay slot per competitor access, bounded by the destination's
//     own demand, as in flat round-robin);
//   - at level 2, with each other *group*'s aggregated demand (one delay
//     slot per group access, again bounded by the destination's demand).
//
// The bound is therefore
//
//	IBUS = L · [ Σ_{same-group i} min(w_i, d) + Σ_{other groups G} min(W_G, d) ]
//
// which degrades gracefully to flat round-robin when GroupSize ≤ 1. Grouping
// at level 2 makes the policy non-additive per competitor (a new competitor
// joins an existing group's min term), so the incremental scheduler takes
// its general recomputation path for this arbiter.
type HierarchicalRR struct {
	// WordLatency is the bank service time per access in cycles.
	WordLatency model.Cycles
	// GroupSize is the number of consecutive cores per first-level arbiter
	// (2 on the MPPA-256). Values ≤ 1 collapse to flat round-robin.
	GroupSize int
}

// NewHierarchicalRR returns a two-level round-robin arbiter.
func NewHierarchicalRR(wordLatency model.Cycles, groupSize int) *HierarchicalRR {
	if wordLatency < 1 {
		wordLatency = 1
	}
	if groupSize < 1 {
		groupSize = 1
	}
	return &HierarchicalRR{WordLatency: wordLatency, GroupSize: groupSize}
}

// Name implements Arbiter.
func (h *HierarchicalRR) Name() string {
	return fmt.Sprintf("hier-rr(L=%d,g=%d)", h.WordLatency, h.GroupSize)
}

// Bound implements Arbiter.
func (h *HierarchicalRR) Bound(dst Request, competitors []Request, _ model.BankID) model.Cycles {
	if dst.Demand <= 0 || len(competitors) == 0 {
		return 0
	}
	if h.GroupSize <= 1 {
		// Flat round-robin degenerate case.
		var slots model.Accesses
		for _, c := range competitors {
			slots += minAcc(c.Demand, dst.Demand)
		}
		return model.ScaleAccesses(slots, h.WordLatency)
	}
	dstGroup := int(dst.Core) / h.GroupSize
	var slots model.Accesses
	//mialint:ignore hotpathalloc -- per-call scratch sized by group fan-out; Bound must stay stateless because concurrent analyzers of one image share the arbiter
	otherGroups := make(map[int]model.Accesses)
	for _, c := range competitors {
		g := int(c.Core) / h.GroupSize
		if g == dstGroup {
			slots += minAcc(c.Demand, dst.Demand)
		} else {
			otherGroups[g] += c.Demand
		}
	}
	//mialint:ignore determinism -- commutative integer sum over group totals; no iteration order can be observed in the result
	for _, w := range otherGroups {
		slots += minAcc(w, dst.Demand)
	}
	return model.ScaleAccesses(slots, h.WordLatency)
}

// Additive implements Arbiter. Level-2 grouping couples competitors of the
// same group, so the bound is not a per-competitor sum.
func (h *HierarchicalRR) Additive() bool { return false }
