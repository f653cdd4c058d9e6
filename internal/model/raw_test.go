package model_test

import (
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
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

func TestRawFingerprintMatchesGraph(t *testing.T) {
	for name, g := range rawTestGraphs(t) {
		r := g.Raw()
		if got, want := r.Fingerprint(), g.Fingerprint(); got != want {
			t.Errorf("%s: raw fingerprint %s, graph fingerprint %s", name, got, want)
		}
		if err := r.Validate(); err != nil {
			t.Errorf("%s: raw of valid graph fails Validate: %v", name, err)
		}
	}
}

func TestRawGraphRoundTrip(t *testing.T) {
	for name, g := range rawTestGraphs(t) {
		back, err := g.Raw().Graph()
		if err != nil {
			t.Fatalf("%s: Raw().Graph(): %v", name, err)
		}
		if got, want := back.Fingerprint(), g.Fingerprint(); got != want {
			t.Errorf("%s: round-tripped fingerprint %s, want %s", name, got, want)
		}
		if got, want := back.NumTasks(), g.NumTasks(); got != want {
			t.Errorf("%s: round-tripped %d tasks, want %d", name, got, want)
		}
		for k := 0; k < g.Cores; k++ {
			if got, want := back.BankOf(model.CoreID(k)), g.BankOf(model.CoreID(k)); got != want {
				t.Errorf("%s: core %d bank %d after round trip, want %d", name, k, got, want)
			}
		}
	}
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

// TestRawGraphCopies verifies mutation isolation in both directions: Raw()
// does not alias the graph, and Graph() does not alias the RawGraph.
func TestRawGraphCopies(t *testing.T) {
	g := gen.Figure1()
	r := g.Raw()
	fp := g.Fingerprint()

	r.WCET[0] += 17
	r.OrderIDs[0], r.OrderIDs[1] = r.OrderIDs[1], r.OrderIDs[0]
	if g.Fingerprint() != fp {
		t.Fatalf("mutating RawGraph changed the source graph")
	}

	r2 := g.Raw()
	back, err := r2.Graph()
	if err != nil {
		t.Fatalf("Graph(): %v", err)
	}
	back.Task(0).WCET += 29
	for k := 0; k < back.Cores; k++ {
		if len(back.Order(model.CoreID(k))) >= 2 {
			back.SwapOrder(model.CoreID(k), 0)
			break
		}
	}
	if got := r2.Fingerprint(); got != fp {
		t.Fatalf("mutating materialized graph changed the RawGraph: %s != %s", got, fp)
	}
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

// TestRawValidateAgreesWithGraphValidate feeds the same broken value through
// both validators: whatever RawGraph.Validate rejects on the flat form,
// Graph.Validate must also reject after materialization (and vice versa for
// the accepted baseline) — the wire decoder's vetting must be exactly as
// strict as the JSON path's.
func TestRawValidateAgreesWithGraphValidate(t *testing.T) {
	r := gen.Figure2().Raw()
	if err := r.Validate(); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	r.WCET[2] = model.MaxInput + 1
	if err := r.Validate(); err == nil {
		t.Fatal("raw Validate accepted past-MaxInput WCET")
	}
	if _, err := r.Graph(); err == nil {
		t.Fatal("Graph() materialized a graph with past-MaxInput WCET")
	}
}
