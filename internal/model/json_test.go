package model

import (
	"bytes"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	b := NewBuilder(4, 4)
	n0 := b.AddTask(TaskSpec{Name: "n0", WCET: 2, Core: 0, Local: 3})
	n1 := b.AddTask(TaskSpec{Name: "n1", WCET: 2, Core: 1, MinRelease: 2})
	n2 := b.AddTask(TaskSpec{Name: "n2", WCET: 1, Core: 1, MinRelease: 4})
	b.AddEdge(n0, n1, 1)
	b.AddEdge(n1, n2, 1)
	g := b.MustBuild()

	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if g2.NumTasks() != g.NumTasks() || len(g2.Edges()) != len(g.Edges()) {
		t.Fatalf("round trip lost structure: %v vs %v", g2, g)
	}
	for i := 0; i < g.NumTasks(); i++ {
		id := TaskID(i)
		if g.Name(id) != g2.Name(id) || g.WCET[i] != g2.WCET[i] || g.Core[i] != g2.Core[i] ||
			g.MinRelease[i] != g2.MinRelease[i] || g.Local[i] != g2.Local[i] {
			t.Errorf("task %d mismatch: %q %d %d %d %d vs %q %d %d %d %d", i,
				g.Name(id), g.WCET[i], g.Core[i], g.MinRelease[i], g.Local[i],
				g2.Name(id), g2.WCET[i], g2.Core[i], g2.MinRelease[i], g2.Local[i])
		}
		for bank, d := range g.DemandRow(id) {
			if d2 := g2.DemandRow(id)[bank]; d != d2 {
				t.Errorf("task %d demand[%d]: %d vs %d", i, bank, d, d2)
			}
		}
	}
	for k := 0; k < g.Cores; k++ {
		a, b := g.Order(CoreID(k)), g2.Order(CoreID(k))
		if len(a) != len(b) {
			t.Fatalf("order(%d) length mismatch", k)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("order(%d)[%d]: %d vs %d", k, i, a[i], b[i])
			}
		}
	}
}

func TestReadJSONPolicies(t *testing.T) {
	const src = `{
		"cores": 2, "banks": 2,
		"tasks": [
			{"id": 0, "wcet": 5, "core": 0, "local": 4},
			{"id": 1, "wcet": 5, "core": 1, "local": 4}
		],
		"edges": [{"from": 0, "to": 1, "words": 6}],
		"bankPolicy": "shared"
	}`
	g, err := ReadJSON(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if g.DemandRow(0)[0] != 10 { // 4 local + 6 written, all on bank 0
		t.Errorf("shared policy demand = %v, want [10 0]", g.DemandRow(0))
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"syntax", `{`, "parsing"},
		{"unknown field", `{"cores":1,"banks":1,"tasks":[],"edges":[],"bogus":1}`, "parsing"},
		{"sparse ids", `{"cores":1,"banks":1,"tasks":[{"id":5,"wcet":1,"core":0}],"edges":[]}`, "dense"},
		{"duplicate ids", `{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1,"core":0},{"id":0,"wcet":1,"core":0}],"edges":[]}`, "duplicate"},
		{"bad policy", `{"cores":1,"banks":1,"tasks":[],"edges":[],"bankPolicy":"weird"}`, "bank policy"},
		{"cycle", `{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1,"core":0},{"id":1,"wcet":1,"core":0}],"edges":[{"from":0,"to":1,"words":0},{"from":1,"to":0,"words":0}]}`, "cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadJSON(strings.NewReader(tc.src))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestWriteDOT(t *testing.T) {
	g := twoCoreGraph(t, 2, BankPerCore)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "cluster_core0", "cluster_core1", "t0 -> t1", `label="7"`} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}
