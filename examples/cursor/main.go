// Cursor walkthrough: runs the incremental scheduler on the task set of
// the paper's Figure 2 with event tracing enabled, prints the full event
// log, and reconstructs the Closed/Alive/Future partition at the cursor
// instant of the paper's running example (t = 5: C gains n6, A = {n0, n4,
// n7, n9} after n7 opens).
//
//	go run ./examples/cursor
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
	"github.com/mia-rt/mia/internal/trace"
)

func main() {
	g := gen.Figure2()

	var rec trace.Recorder
	img, err := engine.Compile(g, sched.Options{Trace: rec.Hook()})
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.MustNew(engine.Incremental).Analyze(context.Background(), img)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("-- event log (the cursor mechanism of Section IV) --")
	if err := rec.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	fmt.Println("-- the paper's running example at t = 5 --")
	fmt.Println(rec.PartitionAt(g, 5).String())
	fmt.Println()

	fmt.Println("-- final schedule --")
	fmt.Print(sched.Gantt(g, res, 68))
}
