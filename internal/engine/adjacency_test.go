package engine_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/wire"
)

// TestAdjacencyMatchesGraph is the adjacency oracle: on images from every
// ingest path, each task's CSR successor and predecessor lists equal the
// lists this test builds itself by sorting the graph's edge list, and so do
// model.Graph's own Successors and Predecessors. Besides the differential
// corpus, a hand-built graph lists its edges out of order and repeats one.
func TestAdjacencyMatchesGraph(t *testing.T) {
	b := model.NewBuilder(2, 2)
	for i := 0; i < 6; i++ {
		b.AddTask(model.TaskSpec{WCET: 2, Core: model.CoreID(i % 2), Local: 1})
	}
	for _, e := range [][2]model.TaskID{{3, 5}, {0, 3}, {2, 5}, {0, 1}, {4, 5}, {1, 4}, {0, 3}, {0, 2}, {1, 3}} {
		b.AddEdge(e[0], e[1], 1)
	}
	graphs := []*model.Graph{b.MustBuild()}
	for _, p := range diffCorpus() {
		graphs = append(graphs, gen.MustLayered(p))
	}
	for gi, g := range graphs {
		succs := make([][]model.TaskID, g.NumTasks())
		preds := make([][]model.TaskID, g.NumTasks())
		for _, e := range g.Edges() {
			succs[e.From] = append(succs[e.From], e.To)
			preds[e.To] = append(preds[e.To], e.From)
		}
		for i := range succs {
			slices.Sort(succs[i])
			slices.Sort(preds[i])
		}
		var doc bytes.Buffer
		if err := g.WriteJSON(&doc); err != nil {
			t.Fatalf("graph %d: WriteJSON: %v", gi, err)
		}
		paths := []struct {
			name    string
			compile func() (*engine.Image, error)
		}{
			{"Compile", func() (*engine.Image, error) { return engine.Compile(g, sched.Options{}) }},
			{"CompileJSON", func() (*engine.Image, error) { return engine.CompileJSON(doc.Bytes(), sched.Options{}) }},
			{"CompileFromWire", func() (*engine.Image, error) { return engine.CompileFromWire(wire.EncodeGraph(g), sched.Options{}) }},
		}
		check := func(name string, succ, pred func(model.TaskID) []model.TaskID) {
			for i := 0; i < g.NumTasks(); i++ {
				id := model.TaskID(i)
				label := fmt.Sprintf("graph %d, %s, task %d", gi, name, i)
				if got := succ(id); !slices.Equal(got, succs[i]) {
					t.Fatalf("%s: successors %v, want %v", label, got, succs[i])
				}
				if got := pred(id); !slices.Equal(got, preds[i]) {
					t.Fatalf("%s: predecessors %v, want %v", label, got, preds[i])
				}
			}
		}
		check("Graph", g.Successors, g.Predecessors)
		for _, path := range paths {
			img, err := path.compile()
			if err != nil {
				t.Fatalf("graph %d: %s: %v", gi, path.name, err)
			}
			check(path.name, img.Succs, img.Preds)
		}
	}
}
