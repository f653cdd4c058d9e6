// Avionics case study: a ROSACE-style longitudinal flight-controller
// dataflow (sensor filters → control laws → actuators over two control
// periods) mapped on 4 cores with per-core memory banks — the class of
// application the paper's introduction motivates.
//
// The example compares three arbitration policies on the same task set,
// validates the round-robin schedule against the cycle-level bus simulator,
// and prints the safety margin actually observed.
//
//	go run ./examples/avionics
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
	"github.com/mia-rt/mia/internal/sim"
)

func main() {
	g := gen.Avionics()
	fmt.Printf("flight controller: %d tasks, %d edges on %d cores / %d banks\n\n",
		g.NumTasks(), len(g.Edges()), g.Cores, g.Banks)

	policies := []arbiter.Arbiter{
		arbiter.NewNone(),
		arbiter.NewRoundRobin(1),
		arbiter.NewTDM(g.Cores, 1),
	}
	fmt.Printf("%-22s %10s %14s\n", "arbiter", "makespan", "interference")
	eng := engine.MustNew(engine.Incremental)
	var rr *sched.Result
	for _, arb := range policies {
		img, err := engine.Compile(g, sched.Options{Arbiter: arb})
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Analyze(context.Background(), img)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %10d %14d\n", arb.Name(), res.Makespan, res.TotalInterference())
		if arb.Name() == "round-robin(L=1)" {
			rr = res
		}
	}
	fmt.Println()
	fmt.Print(sched.Gantt(g, rr, 76))
	fmt.Println()

	// Validate the round-robin schedule against the cycle-level simulator
	// under the most contentious access pattern.
	out, err := sim.Run(g, rr.Release, sim.Config{Pattern: sim.Front})
	if err != nil {
		log.Fatal(err)
	}
	worstSlack := model.Infinity
	var worstTask model.TaskID
	for i := range out.Finish {
		id := model.TaskID(i)
		slack := rr.Finish(id) - out.Finish[i]
		if slack < 0 {
			log.Fatalf("%s finished at %d, past its bound %d — analysis unsound!", id, out.Finish[i], rr.Finish(id))
		}
		if slack < worstSlack {
			worstSlack, worstTask = slack, id
		}
	}
	fmt.Printf("cycle-level simulation: all %d tasks within their analyzed windows\n", g.NumTasks())
	fmt.Printf("tightest margin: %d cycles on %s (%s)\n", worstSlack, worstTask, g.Task(worstTask).Name)
	fmt.Printf("simulated makespan %d vs analyzed worst case %d\n", out.Makespan, rr.Makespan)
}
