package model_test

import (
	"context"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

// rawTestGraphs returns a labeled spread of graphs covering both bank
// policies, multiple platform shapes, and the hand-written paper figures.
func rawTestGraphs(t *testing.T) map[string]*model.Graph {
	t.Helper()
	graphs := map[string]*model.Graph{
		"figure1":  gen.Figure1(),
		"figure2":  gen.Figure2(),
		"avionics": gen.Avionics(),
	}
	shapes := []struct {
		name   string
		layers int
		size   int
		cores  int
		banks  int
		shared bool
	}{
		{"ls8x4", 8, 4, 4, 4, false},
		{"ls6x8", 6, 8, 8, 8, false},
		{"nl4x12", 4, 12, 4, 1, true},
		{"nl6x10", 6, 10, 16, 16, false},
	}
	for _, s := range shapes {
		p := gen.NewParams(s.layers, s.size)
		p.Cores, p.Banks, p.SharedBank = s.cores, s.banks, s.shared
		p.Seed = int64(31 + s.layers*s.size)
		graphs[s.name] = gen.MustLayered(p)
	}
	return graphs
}

// TestRawFingerprintWithMatchesGraphOrders pins the flat overlay hash to
// the graph-side reference: RawGraph.OrderHasher().Sum(orders) equals the
// Fingerprint of a clone of the graph carrying those orders, for the
// baseline orders and for a swapped overlay.
func TestRawFingerprintWithMatchesGraphOrders(t *testing.T) {
	for name, g := range rawTestGraphs(t) {
		oh := g.Raw().OrderHasher()
		orders := make([][]model.TaskID, g.Cores)
		for k := range orders {
			orders[k] = append([]model.TaskID(nil), g.Order(model.CoreID(k))...)
		}
		if got, want := oh.Sum(orders), g.Fingerprint(); got != want {
			t.Errorf("%s: baseline overlay hash %s, graph fingerprint %s", name, got, want)
		}
		// A swapped overlay must change the hash and still agree with the
		// graph carrying the same orders.
		edited := g.Clone()
		swapped := false
		for k := range orders {
			if len(orders[k]) >= 2 {
				orders[k][0], orders[k][1] = orders[k][1], orders[k][0]
				edited.SetOrder(model.CoreID(k), orders[k])
				swapped = true
				break
			}
		}
		if !swapped {
			continue
		}
		got, want := oh.Sum(orders), edited.Fingerprint()
		if got != want {
			t.Errorf("%s: swapped overlay hash %s, edited graph %s", name, got, want)
		}
		if got == g.Fingerprint() {
			t.Errorf("%s: swapped overlay fingerprint did not change", name)
		}
	}
}

// TestOrderHasherMatchesFingerprint pins the frozen-midstate fast path:
// one OrderHasher stays reusable across many Sum calls, each
// byte-identical to the Fingerprint of the graph carrying the same orders.
func TestOrderHasherMatchesFingerprint(t *testing.T) {
	for name, g := range rawTestGraphs(t) {
		rh := g.Raw().OrderHasher()
		edited := g.Clone()
		for round := 0; round < 3; round++ {
			want := edited.Fingerprint()
			orders := make([][]model.TaskID, g.Cores)
			for k := range orders {
				orders[k] = edited.Order(model.CoreID(k))
			}
			if got := rh.Sum(orders); got != want {
				t.Errorf("%s round %d: raw OrderHasher %s, want %s", name, round, got, want)
			}
			if round == 0 && want != g.Fingerprint() {
				t.Errorf("%s: baseline overlay hash %s differs from Fingerprint %s", name, want, g.Fingerprint())
			}
			// Mutate the orders for the next round: swap the first core
			// with at least two tasks.
			for k := 0; k < g.Cores; k++ {
				if len(edited.Order(model.CoreID(k))) >= 2 {
					edited.SwapOrder(model.CoreID(k), 0)
					break
				}
			}
		}
	}
}

// TestRawGraphCopies pins the isolation rule between graphs and images:
// engine.Compile adopts a copy of the graph's flat form, and NewGraph
// returns a copy of the image's. Editing a graph after compiling it —
// through Raw(), SetOrder and CompileDemands — and editing a NewGraph must
// leave the image's fingerprint and analysis unchanged.
func TestRawGraphCopies(t *testing.T) {
	ctx := context.Background()
	eng := engine.MustNew(engine.Incremental)
	p := gen.NewParams(6, 4)
	p.Cores, p.Banks, p.Seed = 4, 4, 7
	g := gen.MustLayered(p)
	img, err := engine.Compile(g, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp := img.Fingerprint()
	want, err := eng.Analyze(ctx, img)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(after string) {
		t.Helper()
		// NewGraph re-hashes the image's flat arrays; Fingerprint is cached.
		if got := img.NewGraph().Fingerprint(); got != fp {
			t.Fatalf("after %s: image fingerprint %s, want %s", after, got, fp)
		}
		got, err := eng.Analyze(ctx, img)
		if err != nil {
			t.Fatalf("after %s: %v", after, err)
		}
		if d := got.Diff(want); d != "" {
			t.Fatalf("after %s: analysis changed: %s", after, d)
		}
	}

	r := g.Raw()
	r.WCET[0] += 17
	r.MinRelease[1] += 3
	r.Local[2] += 5
	r.Demand[0] += 9
	r.Edges[0].Words += 4
	r.BankTable[0] = model.BankID(r.Banks - 1)
	unchanged("editing Raw()")
	for k := 0; k < g.Cores; k++ {
		if o := g.Order(model.CoreID(k)); len(o) >= 2 {
			g.SetOrder(model.CoreID(k), append([]model.TaskID{o[len(o)-1]}, o[:len(o)-1]...))
		}
	}
	unchanged("SetOrder")
	g.CompileDemands(model.SharedBank)
	unchanged("CompileDemands")
	if g.Fingerprint() == fp {
		t.Fatal("the edits did not change the graph itself")
	}

	ng := img.NewGraph()
	ng.WCET[1] += 11
	ng.Demand[1] += 2
	ng.RawGraph.Edges[0].Words += 1
	for k := 0; k < ng.Cores; k++ {
		if len(ng.Order(model.CoreID(k))) >= 2 {
			ng.SwapOrder(model.CoreID(k), 0)
		}
	}
	ng.CompileDemands(model.BankPerCore)
	unchanged("editing a NewGraph")
}

func TestRawValidateRejects(t *testing.T) {
	base := func() *model.RawGraph { return gen.Figure1().Raw() }
	cases := []struct {
		name   string
		break_ func(*model.RawGraph)
		want   string
	}{
		{"wcet overflow", func(r *model.RawGraph) { r.WCET[0] = model.MaxInput + 1 }, "MaxInput"},
		{"negative wcet", func(r *model.RawGraph) { r.WCET[0] = -1 }, "negative WCET"},
		{"release overflow", func(r *model.RawGraph) { r.MinRelease[0] = model.MaxInput + 1 }, "MaxInput"},
		{"local overflow", func(r *model.RawGraph) { r.Local[0] = model.MaxInput + 1 }, "MaxInput"},
		{"demand overflow", func(r *model.RawGraph) { r.Demand[0] = model.MaxInput + 1 }, "MaxInput"},
		{"negative demand", func(r *model.RawGraph) { r.Demand[0] = -3 }, "negative demand"},
		{"core out of range", func(r *model.RawGraph) { r.Core[0] = model.CoreID(r.Cores) }, "platform has"},
		{"edge volume overflow", func(r *model.RawGraph) { r.Edges[0].Words = model.MaxInput + 1 }, "MaxInput"},
		{"edge self-loop", func(r *model.RawGraph) { r.Edges[0].To = r.Edges[0].From }, "self-dependency"},
		{"edge target range", func(r *model.RawGraph) { r.Edges[0].To = model.TaskID(r.NumTasks()) }, "out of range"},
		{"bank table range", func(r *model.RawGraph) { r.BankTable[0] = model.BankID(r.Banks) }, "platform has"},
		{"cycle", func(r *model.RawGraph) {
			e := r.Edges[0]
			r.Edges = append(r.Edges, model.Edge{From: e.To, To: e.From})
		}, "cycle"},
		{"order duplicate", func(r *model.RawGraph) {
			for k := 0; k < r.Cores; k++ {
				if s, e := r.OrderStart[k], r.OrderStart[k+1]; e-s >= 2 {
					r.OrderIDs[s+1] = r.OrderIDs[s]
					return
				}
			}
		}, "twice"},
		{"order csr span", func(r *model.RawGraph) { r.OrderStart[r.Cores] = 0 }, "span"},
		{"demand length", func(r *model.RawGraph) { r.Demand = r.Demand[:len(r.Demand)-1] }, "demand"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := base()
			tc.break_(r)
			err := r.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate error %q does not mention %q", err, tc.want)
			}
		})
	}
}
