// Figure 1 of the paper, end to end: the five-task example scheduled twice
// — once ignoring interference (top diagram, global WCRT 6) and once under
// the Kalray round-robin arbiter (bottom diagram, global WCRT 7 with
// interference 1 on n0, 1 on n1 and 2 on n3).
//
//	go run ./examples/figure1
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

func main() {
	g := gen.Figure1()

	fmt.Println("Figure 1 task set: 5 tasks, 4 cores, 1 shared bank")
	fmt.Println()

	naive := analyze(g, arbiter.NewNone())
	fmt.Println("-- interference ignored (paper: top diagram, t = 6) --")
	fmt.Print(sched.Gantt(g, naive, 60))
	fmt.Println()

	rr := analyze(g, arbiter.NewRoundRobin(1))
	fmt.Println("-- round-robin interference accounted (paper: bottom diagram, t = 7) --")
	fmt.Print(sched.Gantt(g, rr, 60))
	fmt.Println()

	fmt.Printf("naive makespan %d, interference-aware makespan %d\n", naive.Makespan, rr.Makespan)
	if naive.Makespan != 6 || rr.Makespan != 7 {
		log.Fatalf("expected 6 and 7 as published")
	}
	fmt.Println("matches the published schedules exactly.")
}

// analyze compiles g under the given arbiter and runs the incremental
// analysis on it.
func analyze(g *model.Graph, arb arbiter.Arbiter) *sched.Result {
	img, err := engine.Compile(g, sched.Options{Arbiter: arb})
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.MustNew(engine.Incremental).Analyze(context.Background(), img)
	if err != nil {
		log.Fatal(err)
	}
	return res
}
