package sched

import (
	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/model"
)

// WindowInterference computes, from scratch, the interference received by
// task dst given every task's execution window: the tasks considered are
// those whose half-open windows [rel, fin) overlap dst's, mapped to a
// different core, with demand on a common bank. Competitor demands are
// grouped per core unless separate is true (the Section II.C merging
// hypothesis and its ablation).
//
// The fixed-point baseline calls this in every pass — it *is* the expensive
// global recomputation the paper's algorithm avoids — and the independent
// schedule checker uses it to cross-validate both schedulers' outputs.
//
// perBank, when non-nil, must have length g.Banks and receives the per-bank
// split. The return value is the total over banks.
func WindowInterference(
	g *model.Graph,
	arb arbiter.Arbiter,
	separate bool,
	rel, fin []model.Cycles,
	dst model.TaskID,
	perBank []model.Cycles,
) model.Cycles {
	dcore, ddem := g.Core[dst], g.DemandRow(dst)
	var total model.Cycles
	if perBank != nil {
		for b := range perBank {
			perBank[b] = 0
		}
	}
	if g.TotalDemand(dst) == 0 {
		return 0
	}
	// Gather overlapping interferers once, then split by bank.
	var overlapping []model.TaskID
	for i, core := range g.Core {
		id := model.TaskID(i)
		if id == dst || core == dcore {
			continue
		}
		if rel[dst] < fin[id] && rel[id] < fin[dst] {
			overlapping = append(overlapping, id)
		}
	}
	if len(overlapping) == 0 {
		return 0
	}
	comps := make([]arbiter.Request, 0, len(overlapping))
	for b, demand := range ddem {
		if demand == 0 {
			continue
		}
		comps = comps[:0]
		for _, src := range overlapping {
			w := g.DemandRow(src)[b]
			if w <= 0 {
				continue
			}
			if separate {
				comps = append(comps, arbiter.Request{Core: g.Core[src], Demand: w})
				continue
			}
			merged := false
			for j := range comps {
				if comps[j].Core == g.Core[src] {
					comps[j].Demand += w
					merged = true
					break
				}
			}
			if !merged {
				comps = append(comps, arbiter.Request{Core: g.Core[src], Demand: w})
			}
		}
		if len(comps) == 0 {
			continue
		}
		bound := arb.Bound(arbiter.Request{Core: dcore, Demand: demand}, comps, model.BankID(b))
		if perBank != nil {
			perBank[b] = bound
		}
		total += bound
	}
	return total
}
