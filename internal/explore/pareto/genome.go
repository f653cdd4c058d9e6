package pareto

import (
	"fmt"
	"math/rand"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
)

// Policy identifies a bank-assignment policy a genome's demands are derived
// under. The three explicit values mirror the model package's policy
// functions; Striped and PerCore coincide when the platform has at least
// one bank per core (CompileDemands folds the table modulo the bank count
// either way).
type Policy int

const (
	// Shared maps every core to bank 0 — maximal contention.
	Shared Policy = iota
	// PerCore reserves bank k (mod banks) for core k.
	PerCore
	// Striped maps core k to bank k mod banks.
	Striped
)

// PolicyBaseline marks a genome that keeps the bank-assignment policy the
// image was compiled under (whatever table that was), as opposed to one of
// the explicit policies a mutation switched to.
const PolicyBaseline Policy = -1

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Shared:
		return "shared"
	case PerCore:
		return "per-core"
	case Striped:
		return "striped"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Table materializes an explicit policy as a core→bank table. Demands are
// always re-derived from a fixed table, never from a policy closure over
// live graph state, so a structural evaluation depends on the genome
// alone.
func (p Policy) Table(cores, banks int) []model.BankID {
	tab := make([]model.BankID, cores)
	for k := range tab {
		if p != Shared { // PerCore and Striped both stripe modulo the bank count
			tab[k] = model.BankID(k % banks)
		}
	}
	return tab
}

// Genome is one candidate configuration: a full task→core assignment, the
// per-core execution orders of that assignment, and the bank-assignment
// policy. The baseline genome mirrors the compiled image; mutations walk
// all three dimensions.
type Genome struct {
	Assign []model.CoreID
	Orders [][]model.TaskID
	// Policy is PolicyBaseline or the explicit policy the demands are
	// re-derived under.
	Policy Policy
	// structural is true when Assign or Policy differ from the compiled
	// image, forcing recompile+cold evaluation instead of the warm
	// order-overlay path.
	structural bool
}

// baselineGenome snapshots the compiled image's configuration.
func baselineGenome(img *engine.Image) *Genome {
	g := &Genome{
		Assign: append([]model.CoreID(nil), img.Core...),
		Orders: make([][]model.TaskID, img.Cores),
		Policy: PolicyBaseline,
	}
	for k := 0; k < img.Cores; k++ {
		g.Orders[k] = append([]model.TaskID(nil), img.Order(model.CoreID(k))...)
	}
	return g
}

// clone deep-copies the genome.
func (g *Genome) clone() *Genome {
	c := &Genome{
		Assign:     append([]model.CoreID(nil), g.Assign...),
		Orders:     make([][]model.TaskID, len(g.Orders)),
		Policy:     g.Policy,
		structural: g.structural,
	}
	for k, ord := range g.Orders {
		c.Orders[k] = append([]model.TaskID(nil), ord...)
	}
	return c
}

// mutator holds the immutable legality context of the variation operators:
// the direct-dependency pair set and geometry. All randomness comes from
// the caller's seeded rng, drawn sequentially in the main search goroutine.
type mutator struct {
	img *engine.Image
	dep map[[2]model.TaskID]bool
}

func newMutator(img *engine.Image) *mutator {
	m := &mutator{img: img, dep: make(map[[2]model.TaskID]bool, len(img.Edges))}
	for _, e := range img.Edges {
		m.dep[[2]model.TaskID{e.From, e.To}] = true
	}
	return m
}

// mutationRetries bounds how often an operator redraws before giving up
// and leaving the child identical to its parent (a duplicate is harmless:
// it evaluates to a known point and never enters the archive twice).
const mutationRetries = 8

// mutate derives a child from parent by one random move: adjacent order
// swap (70%), task remap (20%), or bank-policy flip (10%).
func (m *mutator) mutate(parent *Genome, rng *rand.Rand) *Genome {
	child := parent.clone()
	switch r := rng.Float64(); {
	case r < 0.7:
		m.mutateSwap(child, rng)
	case r < 0.9:
		m.mutateRemap(child, rng)
	default:
		m.mutatePolicy(child, rng)
	}
	return child
}

// mutateSwap exchanges a random dependency-free adjacent pair on a random
// core.
func (m *mutator) mutateSwap(g *Genome, rng *rand.Rand) {
	for try := 0; try < mutationRetries; try++ {
		k := rng.Intn(len(g.Orders))
		ord := g.Orders[k]
		if len(ord) < 2 {
			continue
		}
		pos := rng.Intn(len(ord) - 1)
		if m.dep[[2]model.TaskID{ord[pos], ord[pos+1]}] {
			continue
		}
		ord[pos], ord[pos+1] = ord[pos+1], ord[pos]
		return
	}
}

// mutateRemap migrates a random task to a random other core, inserted
// uniformly within the window that keeps the target order consistent with
// the task's direct same-core dependencies (after all predecessors, before
// all successors present on that core). Cross-core cycles can still arise;
// those candidates evaluate as unschedulable and never reach the front.
func (m *mutator) mutateRemap(g *Genome, rng *rand.Rand) {
	if m.img.Cores < 2 {
		return
	}
	for try := 0; try < mutationRetries; try++ {
		task := model.TaskID(rng.Intn(len(g.Assign)))
		to := model.CoreID(rng.Intn(m.img.Cores - 1))
		if to >= g.Assign[task] {
			to++
		}
		dst := g.Orders[to]
		lo, hi := 0, len(dst)
		for i, id := range dst {
			if m.dep[[2]model.TaskID{id, task}] {
				lo = i + 1
			}
			if m.dep[[2]model.TaskID{task, id}] && i < hi {
				hi = i
			}
		}
		if lo > hi {
			continue
		}
		at := lo + rng.Intn(hi-lo+1)
		from := g.Assign[task]
		src := g.Orders[from]
		fromPos := -1
		for i, id := range src {
			if id == task {
				fromPos = i
				break
			}
		}
		g.Orders[from] = append(src[:fromPos:fromPos], src[fromPos+1:]...)
		newDst := make([]model.TaskID, 0, len(dst)+1)
		newDst = append(newDst, dst[:at]...)
		newDst = append(newDst, task)
		newDst = append(newDst, dst[at:]...)
		g.Orders[to] = newDst
		g.Assign[task] = to
		g.structural = true
		return
	}
}

// mutatePolicy switches to a random explicit bank-assignment policy.
func (m *mutator) mutatePolicy(g *Genome, rng *rand.Rand) {
	g.Policy = Policy(rng.Intn(3))
	g.structural = true
}
