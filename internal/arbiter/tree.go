package arbiter

import (
	"fmt"
	"strings"

	"github.com/mia-rt/mia/internal/model"
)

// TreeRR models an arbitrary multi-level round-robin arbitration tree, the
// general form of the Kalray MPPA-256 cluster's bank arbiters (paired
// processing elements behind first-level arbiters, pair buses behind the
// bank's root arbiter — Rihani's thesis models exactly such a tree).
//
// Levels lists the fan-in of each arbitration stage from the leaves up:
// Levels = [2, 8] places cores 2k and 2k+1 behind pair arbiter k, and the 8
// pair buses behind the root. A core's position in the tree is its ID in
// the mixed-radix system defined by Levels; cores beyond the tree capacity
// wrap around (they share leaf ports).
//
// Bound: for each arbitration stage on the destination's path to the bank,
// every *sibling subtree* at that stage can delay each destination access
// at most once, contributing min(subtree demand, d) service slots:
//
//	IBUS = L · Σ_{stages s} Σ_{sibling subtrees T at s} min(W_T, d)
//
// A single-stage tree ([c]) degrades to flat round-robin; [g, …] with two
// stages reproduces HierarchicalRR. Deeper trees tighten the bound further
// because competitors merge into fewer, capped subtree terms.
type TreeRR struct {
	// WordLatency is the bank service time per access in cycles.
	WordLatency model.Cycles
	// Levels is the fan-in per stage, leaves first. Empty means flat.
	Levels []int
}

// NewTreeRR returns a multi-level round-robin tree arbiter. Non-positive
// fan-ins are clamped to 1 (a pass-through stage).
func NewTreeRR(wordLatency model.Cycles, levels ...int) *TreeRR {
	if wordLatency < 1 {
		wordLatency = 1
	}
	cleaned := make([]int, len(levels))
	for i, l := range levels {
		if l < 1 {
			l = 1
		}
		cleaned[i] = l
	}
	return &TreeRR{WordLatency: wordLatency, Levels: cleaned}
}

// MPPA256Tree returns the 16-PE compute-cluster bank arbiter: 8 pairs of
// processing elements behind a root round-robin stage.
func MPPA256Tree() *TreeRR { return NewTreeRR(1, 2, 8) }

// Name implements Arbiter.
func (t *TreeRR) Name() string {
	if len(t.Levels) == 0 {
		return fmt.Sprintf("tree-rr(L=%d,flat)", t.WordLatency)
	}
	parts := make([]string, len(t.Levels))
	for i, l := range t.Levels {
		parts[i] = fmt.Sprint(l)
	}
	return fmt.Sprintf("tree-rr(L=%d,%s)", t.WordLatency, strings.Join(parts, "x"))
}

// capacity is the number of leaf ports of the tree.
func (t *TreeRR) capacity() int {
	c := 1
	for _, l := range t.Levels {
		c *= l
	}
	return c
}

// digitsInto expands a leaf port into its per-stage subtree indices under
// the Levels mixed radix, writing into the caller's scratch buffer so the
// per-competitor loop in Bound stays allocation-free.
func (t *TreeRR) digitsInto(out []int, port int) {
	for i, l := range t.Levels {
		out[i] = port % l
		port /= l
	}
}

// Bound implements Arbiter. Each competitor is charged at the first
// arbitration stage where its tree path diverges from the destination's;
// competitors diverging at the same stage into the same sibling subtree are
// aggregated (they share that subtree's grant slots), and each resulting
// group contributes min(group demand, d) slots. Competitors wrapped onto
// the destination's own leaf port serialize with it at the port and are
// charged individually.
func (t *TreeRR) Bound(dst Request, competitors []Request, _ model.BankID) model.Cycles {
	if dst.Demand <= 0 || len(competitors) == 0 {
		return 0
	}
	if len(t.Levels) == 0 {
		var slots model.Accesses
		for _, c := range competitors {
			slots += minAcc(c.Demand, dst.Demand)
		}
		return model.ScaleAccesses(slots, t.WordLatency)
	}
	cap := t.capacity()
	dstPort := int(dst.Core) % cap
	//mialint:ignore hotpathalloc -- per-call scratch sized by tree depth; Bound must stay stateless because concurrent analyzers of one image share the arbiter
	dstDigits := make([]int, len(t.Levels))
	t.digitsInto(dstDigits, dstPort)
	//mialint:ignore hotpathalloc -- per-call scratch reused across the competitor loop
	cDigits := make([]int, len(t.Levels))
	var slots model.Accesses
	type groupKey struct{ stage, subtree int }
	//mialint:ignore hotpathalloc -- per-call scratch sized by tree fan-out; Bound must stay stateless because concurrent analyzers of one image share the arbiter
	groups := make(map[groupKey]model.Accesses)
	for _, c := range competitors {
		port := int(c.Core) % cap
		if port == dstPort {
			// Same leaf port: serializes with the destination before any
			// arbitration stage; one delay slot per competitor access.
			slots += minAcc(c.Demand, dst.Demand)
			continue
		}
		// The competitor's traffic meets the destination's at the highest
		// stage where their paths differ (below it they are in disjoint
		// subtrees, above it they share every arbiter).
		t.digitsInto(cDigits, port)
		for s := len(cDigits) - 1; s >= 0; s-- {
			if cDigits[s] != dstDigits[s] {
				groups[groupKey{stage: s, subtree: cDigits[s]}] += c.Demand
				break
			}
		}
	}
	//mialint:ignore determinism -- commutative integer sum over subtree totals; no iteration order can be observed in the result
	for _, w := range groups {
		slots += minAcc(w, dst.Demand)
	}
	return model.ScaleAccesses(slots, t.WordLatency)
}

// Additive implements Arbiter: subtree grouping couples competitors.
func (t *TreeRR) Additive() bool { return false }
