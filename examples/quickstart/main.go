// Quickstart: build a small task graph programmatically, run the paper's
// O(n²) incremental interference analysis, and print the resulting
// time-triggered schedule.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

func main() {
	// A 2-core platform with one shared memory bank behind a round-robin
	// arbiter: the smallest configuration where memory interference is
	// visible.
	b := model.NewBuilder(2, 1)

	// Two producers run concurrently on different cores, then a consumer
	// aggregates their outputs. WCETs are in cycles; Local is the number
	// of shared-memory accesses each task performs for its own data.
	left := b.AddTask(model.TaskSpec{Name: "sense_left", WCET: 40, Core: 0, Local: 12})
	right := b.AddTask(model.TaskSpec{Name: "sense_right", WCET: 35, Core: 1, Local: 10})
	fuse := b.AddTask(model.TaskSpec{Name: "fuse", WCET: 25, Core: 0, Local: 6})

	// Each producer writes 8 words into the consumer's bank.
	b.AddEdge(left, fuse, 8)
	b.AddEdge(right, fuse, 8)

	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Compile the graph once into an immutable problem image, then run
	// the paper's incremental analysis on it.
	img, err := engine.Compile(g, sched.Options{
		Arbiter: arbiter.NewRoundRobin(1), // the Kalray MPPA-256 policy
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.MustNew(engine.Incremental).Analyze(context.Background(), img)
	if err != nil {
		log.Fatal(err) // wraps sched.ErrUnschedulable on failure
	}

	fmt.Printf("schedulable: makespan %d cycles\n\n", res.Makespan)
	for i, task := range g.Tasks() {
		id := model.TaskID(i)
		fmt.Printf("%-12s core %d  release %3d  WCET %3d  interference %2d  finish %3d\n",
			task.Name, task.Core, res.Release[id], task.WCET, res.Interference[id], res.Finish(id))
	}
	fmt.Println()
	fmt.Print(sched.Gantt(g, res, 64))

	// The two producers overlap and share the bank: each suffers
	// round-robin interference bounded by min(opponent accesses, own
	// accesses) — visible above as non-zero interference on both.
}
