package main

import (
	"math/rand"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
)

// Swap is one adjacent order swap in the wire shape of /v1/reschedule and
// /v1/batch items: positions Pos and Pos+1 of Core's execution order trade
// places.
type Swap struct {
	Core int `json:"core"`
	Pos  int `json:"pos"`
}

// scenarioGen draws what-if scenarios for one compiled graph: 1–3 adjacent
// swaps, each at a core chosen uniformly and a position uniform over that
// core's order, each exchanging two tasks with no precedence path between
// them. Identity-pair swaps at an order's tail replay a few microseconds of
// suffix and say nothing about the warm path's real cost; swaps spread over
// the whole order replay on average half of it.
//
// "No path" is checked in the precedence graph the analysis actually runs
// on — DAG edges plus every core's execution-order edges — minus the direct
// order edge between the two swapped tasks. A DAG-only check is not enough:
// a path a→x (DAG), x→y (another core's order), y→b (DAG) forces a before b
// just as firmly, and swapping them would deadlock the schedule.
type scenarioGen struct {
	img *engine.Image
	rng *rand.Rand

	base  [][]model.TaskID // baseline per-core orders
	coreN []int            // cores with at least two tasks (swappable)

	// scratch reused across draws
	level []int32
	indeg []int32
	queue []model.TaskID
	seen  []uint32
	epoch uint32
	next  []model.TaskID // order successor per task, -1 at a core's tail
}

func newScenarioGen(img *engine.Image, seed int64) *scenarioGen {
	sg := &scenarioGen{
		img:   img,
		rng:   rand.New(rand.NewSource(seed)),
		base:  make([][]model.TaskID, img.Cores),
		level: make([]int32, img.NumTasks),
		indeg: make([]int32, img.NumTasks),
		queue: make([]model.TaskID, 0, img.NumTasks),
		seen:  make([]uint32, img.NumTasks),
		next:  make([]model.TaskID, img.NumTasks),
	}
	for k := 0; k < img.Cores; k++ {
		sg.base[k] = img.Order(model.CoreID(k))
		if len(sg.base[k]) >= 2 {
			sg.coreN = append(sg.coreN, k)
		}
	}
	return sg
}

// scenario draws one scenario of 1–3 swaps, applied in sequence.
func (sg *scenarioGen) scenario() []Swap {
	orders := append([][]model.TaskID(nil), sg.base...)
	owned := make([]bool, len(orders)) // copy-on-write per touched core
	n := 1 + sg.rng.Intn(3)
	out := make([]Swap, 0, n)
	for len(out) < n {
		sg.computeLevels(orders)
		sw, ok := sg.drawSwap(orders)
		if !ok {
			break // graph has no independent adjacent pair left
		}
		if !owned[sw.Core] {
			orders[sw.Core] = append([]model.TaskID(nil), orders[sw.Core]...)
			owned[sw.Core] = true
		}
		o := orders[sw.Core]
		o[sw.Pos], o[sw.Pos+1] = o[sw.Pos+1], o[sw.Pos]
		out = append(out, sw)
	}
	return out
}

// batch draws n scenarios of which about dupShare (for every item after
// the first) repeat the swap list of an earlier item of the same batch, so
// they evaluate to an already-seen configuration.
func (sg *scenarioGen) batch(n int, dupShare float64) [][]Swap {
	items := make([][]Swap, n)
	for i := range items {
		if i > 0 && sg.rng.Float64() < dupShare {
			items[i] = items[sg.rng.Intn(i)]
			continue
		}
		items[i] = sg.scenario()
	}
	return items
}

// drawSwap picks a uniformly random core and position, rejecting pairs
// with a precedence path between them.
func (sg *scenarioGen) drawSwap(orders [][]model.TaskID) (Swap, bool) {
	if len(sg.coreN) == 0 {
		return Swap{}, false
	}
	for try := 0; try < 256; try++ {
		k := sg.coreN[sg.rng.Intn(len(sg.coreN))]
		pos := sg.rng.Intn(len(orders[k]) - 1)
		if sg.independent(orders[k][pos], orders[k][pos+1]) {
			return Swap{Core: k, Pos: pos}, true
		}
	}
	return Swap{}, false
}

// computeLevels fills sg.level with each task's longest-path depth in the
// precedence graph (DAG plus order edges) of the given orders, and sg.next
// with each task's order successor.
func (sg *scenarioGen) computeLevels(orders [][]model.TaskID) {
	img := sg.img
	for i := range sg.next {
		sg.next[i] = -1
	}
	for i := 0; i < img.NumTasks; i++ {
		sg.indeg[i] = int32(img.PredCount(model.TaskID(i)))
		sg.level[i] = 0
	}
	for _, o := range orders {
		for p := 0; p+1 < len(o); p++ {
			sg.next[o[p]] = o[p+1]
			sg.indeg[o[p+1]]++
		}
	}
	q := sg.queue[:0]
	for i := 0; i < img.NumTasks; i++ {
		if sg.indeg[i] == 0 {
			q = append(q, model.TaskID(i))
		}
	}
	relax := func(from, to model.TaskID) {
		if l := sg.level[from] + 1; l > sg.level[to] {
			sg.level[to] = l
		}
		sg.indeg[to]--
		if sg.indeg[to] == 0 {
			q = append(q, to)
		}
	}
	for h := 0; h < len(q); h++ {
		t := q[h]
		for _, s := range img.Succs(t) {
			relax(t, s)
		}
		if nx := sg.next[t]; nx >= 0 {
			relax(t, nx)
		}
	}
	sg.queue = q[:0]
}

// independent reports whether no precedence path leads from a to b other
// than the direct order edge a→b (b is a's order successor). Levels bound
// the search: every node on such a path sits strictly below b's level, and
// a path of two or more edges needs level(b) ≥ level(a)+2.
func (sg *scenarioGen) independent(a, b model.TaskID) bool {
	lb := sg.level[b]
	if lb <= sg.level[a]+1 {
		// Either only the direct edge separates them, or b's depth already
		// rules out any longer path. A DAG edge a→b still makes them
		// dependent.
		for _, s := range sg.img.Succs(a) {
			if s == b {
				return false
			}
		}
		return true
	}
	sg.epoch++
	if sg.epoch == 0 { // wrapped: reset marks
		for i := range sg.seen {
			sg.seen[i] = 0
		}
		sg.epoch = 1
	}
	stack := sg.queue[:0]
	push := func(t model.TaskID) {
		if sg.seen[t] != sg.epoch && sg.level[t] <= lb {
			sg.seen[t] = sg.epoch
			stack = append(stack, t)
		}
	}
	for _, s := range sg.img.Succs(a) {
		push(s)
	}
	found := false
	for len(stack) > 0 && !found {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t == b {
			found = true
			break
		}
		if sg.level[t] >= lb {
			continue
		}
		for _, s := range sg.img.Succs(t) {
			push(s)
		}
		if nx := sg.next[t]; nx >= 0 {
			push(nx)
		}
	}
	sg.queue = stack[:0]
	return !found
}
