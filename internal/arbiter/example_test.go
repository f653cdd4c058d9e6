package arbiter_test

import (
	"fmt"

	"github.com/mia-rt/mia/internal/arbiter"
)

// ExampleRoundRobin_Bound reproduces the worked example of the paper's
// Section II.A: three cores each writing 8 words through a single-word
// round-robin bus delay each other by 16 cycles.
func ExampleRoundRobin_Bound() {
	rr := arbiter.NewRoundRobin(1)
	dst := arbiter.Request{Core: 0, Demand: 8}
	competitors := []arbiter.Request{
		{Core: 1, Demand: 8},
		{Core: 2, Demand: 8},
	}
	fmt.Println(rr.Bound(dst, competitors, 0), "cycles")
	// Output:
	// 16 cycles
}

// ExampleTreeRR shows the MPPA-256 cluster arbitration tree: the pair
// sibling counts individually while a whole far pair aggregates.
func ExampleTreeRR() {
	tree := arbiter.NewTreeRR(1, 2, 8)
	dst := arbiter.Request{Core: 0, Demand: 10}
	competitors := []arbiter.Request{
		{Core: 1, Demand: 4}, // same pair as core 0
		{Core: 2, Demand: 6}, // pair 1 ...
		{Core: 3, Demand: 7}, // ... aggregates with core 2
	}
	fmt.Println(tree.Name(), "->", tree.Bound(dst, competitors, 0), "cycles")
	flat := arbiter.NewRoundRobin(1)
	fmt.Println(flat.Name(), "->", flat.Bound(dst, competitors, 0), "cycles")
	// Output:
	// tree-rr(L=1,2x8) -> 14 cycles
	// round-robin(L=1) -> 17 cycles
}
