package incremental_test

import (
	"context"
	"fmt"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

// Example analyzes the paper's Figure 1 task set and prints the published
// schedule: the graph is compiled once into an image, and the registered
// "incremental" backend analyzes the image.
func Example() {
	g := gen.Figure1()
	img, err := engine.Compile(g, sched.Options{Arbiter: arbiter.NewRoundRobin(1)})
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := engine.MustNew(engine.Incremental).Analyze(context.Background(), img)
	if err != nil {
		fmt.Println("unschedulable:", err)
		return
	}
	for i := 0; i < g.NumTasks(); i++ {
		id := model.TaskID(i)
		fmt.Printf("%s rel=%d I=%d R=%d\n",
			g.Task(id).Name, res.Release[id], res.Interference[id], res.Response[id])
	}
	fmt.Println("makespan:", res.Makespan)
	// Output:
	// n0 rel=0 I=1 R=3
	// n1 rel=3 I=1 R=3
	// n2 rel=6 I=0 R=1
	// n3 rel=0 I=2 R=5
	// n4 rel=5 I=0 R=2
	// makespan: 7
}

// Example_deadline shows unschedulability reporting.
func Example_deadline() {
	img, err := engine.Compile(gen.Figure1(), sched.Options{Deadline: 6})
	if err != nil {
		fmt.Println(err)
		return
	}
	_, err = engine.MustNew(engine.Incremental).Analyze(context.Background(), img)
	fmt.Println(err)
	// Output:
	// unschedulable: deadline at t=7
}

// Example_trace shows the cursor event stream of Section IV.
func Example_trace() {
	b := model.NewBuilder(2, 1)
	p := b.AddTask(model.TaskSpec{Name: "prod", WCET: 3, Core: 0, Local: 2})
	c := b.AddTask(model.TaskSpec{Name: "cons", WCET: 2, Core: 1, Local: 2})
	b.AddEdge(p, c, 1)
	g, _ := b.Build()
	img, err := engine.Compile(g, sched.Options{Trace: func(e sched.Event) {
		if e.Kind != sched.EventCursor {
			fmt.Println(e)
		}
	}})
	if err != nil {
		fmt.Println(err)
		return
	}
	if _, err := engine.MustNew(engine.Incremental).Analyze(context.Background(), img); err != nil {
		fmt.Println(err)
	}
	// Output:
	// t=0      open τ0
	// t=3      close τ0
	// t=3      open τ1
	// t=5      close τ1
}
