// Scaling demonstration: the conclusion of the paper claims the incremental
// algorithm handles "more than 8000 tasks while maintaining a reasonable
// execution time". This example generates an 8192-task LS64 benchmark DAG
// (the heaviest family of Figure 3), schedules it, and reports the wall
// clock — then doubles to 16384 for good measure.
//
//	go run ./examples/scaling
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

func main() {
	fmt.Printf("%8s %12s %14s %12s\n", "tasks", "analysis(s)", "makespan", "events")
	eng := engine.MustNew(engine.Incremental)
	for _, tasks := range []int{1024, 2048, 4096, 8192, 16384} {
		p := gen.NewParams(tasks/64, 64) // LS64: layer size 64
		g, err := gen.Layered(p)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		img, err := engine.Compile(g, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Analyze(context.Background(), img)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("%8d %12.4f %14d %12d\n", tasks, elapsed.Seconds(), res.Makespan, res.Iterations)
	}
	fmt.Println("\nthe O(n⁴) baseline needs hours beyond ~1k tasks; see `miabench -scale`.")
}
