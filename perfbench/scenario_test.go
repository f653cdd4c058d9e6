package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/server"
)

func testGraph(t *testing.T, layers, width int, seed int64) (*model.Graph, *engine.Image) {
	t.Helper()
	p := gen.NewParams(layers, width)
	p.Seed = seed
	g := gen.MustLayered(p)
	img, err := engine.Compile(g, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, img
}

// reaches reports whether a path leads from a to b through DAG edges and
// order edges of g, ignoring the direct order edge a→b — a plain BFS, the
// reference for scenarioGen's level-pruned search.
func reaches(g *model.Graph, a, b model.TaskID) bool {
	next := map[model.TaskID]model.TaskID{}
	for k := 0; k < g.Cores; k++ {
		o := g.Order(model.CoreID(k))
		for i := 0; i+1 < len(o); i++ {
			next[o[i]] = o[i+1]
		}
	}
	seen := map[model.TaskID]bool{}
	queue := append([]model.TaskID(nil), g.Successors(a)...)
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		if t == b {
			return true
		}
		if seen[t] {
			continue
		}
		seen[t] = true
		queue = append(queue, g.Successors(t)...)
		if nx, ok := next[t]; ok {
			queue = append(queue, nx)
		}
	}
	return false
}

// TestScenariosAreSchedulable: every generated scenario swaps tasks with
// no precedence path between them, and a shard answers every one with 200.
func TestScenariosAreSchedulable(t *testing.T) {
	s := server.New(server.Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	for seed := int64(1); seed <= 3; seed++ {
		g, img := testGraph(t, 12, 32, seed)
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", &buf))
		if rec.Code != http.StatusOK {
			t.Fatalf("analyze: %d %s", rec.Code, rec.Body)
		}
		sg := newScenarioGen(img, seed)
		for i := 0; i < 100; i++ {
			sc := sg.scenario()
			if len(sc) < 1 || len(sc) > 3 {
				t.Fatalf("scenario has %d swaps, want 1-3", len(sc))
			}
			c := g.Clone()
			for _, sw := range sc {
				o := c.Order(model.CoreID(sw.Core))
				if reaches(c, o[sw.Pos], o[sw.Pos+1]) {
					t.Fatalf("seed %d scenario %d swaps dependent tasks %d and %d", seed, i, o[sw.Pos], o[sw.Pos+1])
				}
				c.SwapOrder(model.CoreID(sw.Core), sw.Pos)
			}
			body, _ := json.Marshal(map[string]any{"hash": img.Fingerprint(), "swaps": sc})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reschedule", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("seed %d scenario %v: %d %s", seed, sc, rec.Code, rec.Body)
			}
		}
	}
}

// TestScenarioPositionsSpread: swap positions cover the whole order, not
// its tail.
func TestScenarioPositionsSpread(t *testing.T) {
	_, img := testGraph(t, 12, 32, 7)
	sg := newScenarioGen(img, 7)
	var quart [4]int
	n := 0
	for i := 0; i < 1000; i++ {
		for _, sw := range sg.scenario() {
			last := len(img.Order(model.CoreID(sw.Core))) - 2
			quart[min(3, 4*sw.Pos/(last+1))]++
			n++
		}
	}
	for q, c := range quart {
		if share := float64(c) / float64(n); share < 0.15 || share > 0.35 {
			t.Errorf("quarter %d of the order holds %.2f of %d swaps, want about 0.25", q, share, n)
		}
	}
}

// TestBatchDuplicateShare: about one item in five repeats an earlier item
// of its batch.
func TestBatchDuplicateShare(t *testing.T) {
	_, img := testGraph(t, 12, 32, 3)
	sg := newScenarioGen(img, 3)
	dups, items := 0, 0
	for b := 0; b < 200; b++ {
		seen := map[string]bool{}
		for _, it := range sg.batch(32, 0.2) {
			key := fmt.Sprint(it)
			if seen[key] {
				dups++
			}
			seen[key] = true
			items++
		}
	}
	want := 0.2 * 31 / 32
	if share := float64(dups) / float64(items); share < want-0.02 || share > want+0.02 {
		t.Errorf("duplicate share %.3f, want %.3f ± 0.02", share, want)
	}
}
