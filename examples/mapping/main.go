// Mapping strategies: the framework stage upstream of the paper's analysis.
// An unmapped image-processing pipeline DAG is mapped onto 4 cores with
// three strategies (the evaluation's cyclic rule, greedy load balancing,
// and HEFT-style list scheduling), then each mapping is pushed through the
// O(n²) interference analysis to compare end-to-end worst-case makespans.
//
//	go run ./examples/mapping
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/mapper"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

func main() {
	// A fork-join image pipeline: capture → demosaic → 6 parallel tile
	// filters → merge → encode, with communication volumes on every edge.
	p := &mapper.Problem{
		Cores: 4, Banks: 4,
		Specs: []mapper.Spec{
			{Name: "capture", WCET: 120, Local: 60},
			{Name: "demosaic", WCET: 400, Local: 200},
		},
	}
	p.Edges = append(p.Edges, mapper.Edge{From: 0, To: 1, Words: 64})
	for i := 0; i < 6; i++ {
		p.Specs = append(p.Specs, mapper.Spec{
			Name:  fmt.Sprintf("filter%d", i),
			WCET:  model.Cycles(250 + 80*(i%3)),
			Local: 120,
		})
		p.Edges = append(p.Edges, mapper.Edge{From: 1, To: 2 + i, Words: 32})
	}
	merge := len(p.Specs)
	p.Specs = append(p.Specs, mapper.Spec{Name: "merge", WCET: 180, Local: 90})
	for i := 0; i < 6; i++ {
		p.Edges = append(p.Edges, mapper.Edge{From: 2 + i, To: merge, Words: 32})
	}
	p.Specs = append(p.Specs, mapper.Spec{Name: "encode", WCET: 300, Local: 150})
	p.Edges = append(p.Edges, mapper.Edge{From: merge, To: merge + 1, Words: 48})

	fmt.Printf("unmapped pipeline: %d tasks, %d edges → 4 cores\n\n", len(p.Specs), len(p.Edges))
	fmt.Printf("%-22s %12s %14s\n", "mapping strategy", "makespan", "interference")
	eng := engine.MustNew(engine.Incremental)
	for _, s := range []mapper.Strategy{
		mapper.RoundRobinLayers{},
		mapper.LoadBalance{},
		mapper.ListScheduling{},
	} {
		g, err := mapper.Map(p, s)
		if err != nil {
			log.Fatal(err)
		}
		img, err := engine.Compile(g, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Analyze(context.Background(), img)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %12d %14d\n", s.Name(), res.Makespan, res.TotalInterference())
	}
	fmt.Println("\nmapping happens before the analysis (the paper takes it as input);")
	fmt.Println("the analysis then fixes release dates so the bounds hold at run time.")
}
