package gen

import (
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/model"
)

func TestLayeredShape(t *testing.T) {
	p := NewParams(6, 8)
	g, err := Layered(p)
	if err != nil {
		t.Fatalf("Layered: %v", err)
	}
	if g.NumTasks() != 48 || p.Tasks() != 48 {
		t.Fatalf("tasks = %d, want 48", g.NumTasks())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Edges only connect adjacent layers: layer l to layer l+1.
	for _, e := range g.Edges() {
		if from, to := int(e.From)/p.LayerSize, int(e.To)/p.LayerSize; to != from+1 {
			t.Errorf("edge %s→%s goes from layer %d to layer %d", e.From, e.To, from, to)
		}
	}
}

func TestLayeredCyclicCoreAssignment(t *testing.T) {
	p := NewParams(3, 20)
	p.Cores, p.Banks = 6, 6
	g := MustLayered(p)
	for i, core := range g.Core {
		inLayer := i % p.LayerSize
		if want := model.CoreID(inLayer % p.Cores); core != want {
			t.Fatalf("task %d: core %d, want %d (cyclic rule)", i, core, want)
		}
	}
}

func TestLayeredEdgesAdjacentLayersOnly(t *testing.T) {
	p := NewParams(5, 7)
	g := MustLayered(p)
	for _, e := range g.Edges() {
		fromLayer := int(e.From) / p.LayerSize
		toLayer := int(e.To) / p.LayerSize
		if toLayer != fromLayer+1 {
			t.Fatalf("edge %v→%v crosses layers %d→%d", e.From, e.To, fromLayer, toLayer)
		}
	}
}

func TestLayeredEveryTaskHasPredecessor(t *testing.T) {
	p := NewParams(8, 5)
	p.EdgeProb = 0.01 // force the fallback connection path
	g := MustLayered(p)
	for i := p.LayerSize; i < g.NumTasks(); i++ {
		if len(g.Predecessors(model.TaskID(i))) == 0 {
			t.Fatalf("task %d in layer %d has no predecessor", i, i/p.LayerSize)
		}
	}
}

func TestLayeredRangesRespected(t *testing.T) {
	p := NewParams(6, 10)
	g := MustLayered(p)
	for i := 0; i < g.NumTasks(); i++ {
		id := model.TaskID(i)
		if g.WCET[i] < p.WCETMin || g.WCET[i] > p.WCETMax {
			t.Errorf("%s: WCET %d outside [%d, %d]", id, g.WCET[i], p.WCETMin, p.WCETMax)
		}
		if g.Local[i] < p.AccMin || g.Local[i] > p.AccMax {
			t.Errorf("%s: local %d outside [%d, %d]", id, g.Local[i], p.AccMin, p.AccMax)
		}
	}
	for _, e := range g.Edges() {
		if e.Words < p.WriteMin || e.Words > p.WriteMax {
			t.Errorf("edge %v→%v: words %d outside [%d, %d]", e.From, e.To, e.Words, p.WriteMin, p.WriteMax)
		}
	}
}

func TestLayeredDeterminism(t *testing.T) {
	p := NewParams(4, 6)
	p.Seed = 42
	a, b := MustLayered(p), MustLayered(p)
	if len(a.Edges()) != len(b.Edges()) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range a.Edges() {
		if a.Edges()[i] != b.Edges()[i] {
			t.Fatal("same seed produced different edges")
		}
	}
	for i := range a.WCET {
		if a.WCET[i] != b.WCET[i] {
			t.Fatal("same seed produced different WCETs")
		}
	}
	p.Seed = 43
	c := MustLayered(p)
	same := len(a.Edges()) == len(c.Edges())
	if same {
		for i := range a.Edges() {
			if a.Edges()[i] != c.Edges()[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestLayeredSharedBank(t *testing.T) {
	p := NewParams(3, 4)
	p.SharedBank = true
	g := MustLayered(p)
	for i := 0; i < g.NumTasks(); i++ {
		id := model.TaskID(i)
		for b := 1; b < g.Banks; b++ {
			if g.DemandRow(id)[b] != 0 {
				t.Fatalf("%s has demand on bank %d in shared mode", id, b)
			}
		}
	}
}

func TestLayeredPerCoreBanksDefault(t *testing.T) {
	p := NewParams(3, 4)
	g := MustLayered(p)
	// Demands must not all sit on bank 0: communication spreads across
	// consumer banks.
	spread := false
	for i := 0; i < g.NumTasks(); i++ {
		for b := 1; b < g.Banks; b++ {
			if g.DemandRow(model.TaskID(i))[b] > 0 {
				spread = true
			}
		}
	}
	if !spread {
		t.Fatal("per-core bank policy produced no demand outside bank 0")
	}
}

func TestLayeredValidation(t *testing.T) {
	bad := []Params{
		{Layers: 0, LayerSize: 1, Cores: 1, Banks: 1},
		{Layers: 1, LayerSize: 0, Cores: 1, Banks: 1},
		{Layers: 1, LayerSize: 1, Cores: 0, Banks: 1},
		{Layers: 1, LayerSize: 1, Cores: 1, Banks: 1, WCETMin: 5, WCETMax: 2},
		{Layers: 1, LayerSize: 1, Cores: 1, Banks: 1, AccMin: 5, AccMax: 2},
		{Layers: 1, LayerSize: 1, Cores: 1, Banks: 1, WriteMin: 5, WriteMax: 2},
		{Layers: 1, LayerSize: 1, Cores: 1, Banks: 1, EdgeProb: 1.5},
	}
	for i, p := range bad {
		if _, err := Layered(p); err == nil {
			t.Errorf("case %d: bad params %+v accepted", i, p)
		}
	}
}

func TestMustLayeredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLayered did not panic")
		}
	}()
	MustLayered(Params{})
}

func TestFigure1Shape(t *testing.T) {
	g := Figure1()
	if g.NumTasks() != 5 || len(g.Edges()) != 5 {
		t.Fatalf("figure 1: %d tasks, %d edges", g.NumTasks(), len(g.Edges()))
	}
	if g.Cores != 4 || g.Banks != 1 {
		t.Fatalf("figure 1 platform: %d cores, %d banks", g.Cores, g.Banks)
	}
	wantWCET := []model.Cycles{2, 2, 1, 3, 2}
	wantCore := []model.CoreID{0, 1, 1, 2, 3}
	wantMinRel := []model.Cycles{0, 2, 4, 0, 4}
	for i := range wantWCET {
		if g.WCET[i] != wantWCET[i] || g.Core[i] != wantCore[i] || g.MinRelease[i] != wantMinRel[i] {
			t.Errorf("n%d: WCET %d, core %d, min release %d", i, g.WCET[i], g.Core[i], g.MinRelease[i])
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	g := Figure2()
	if g.NumTasks() != 11 || g.Cores != 4 {
		t.Fatalf("figure 2: %d tasks on %d cores", g.NumTasks(), g.Cores)
	}
	perCore := map[model.CoreID]int{}
	for _, core := range g.Core {
		perCore[core]++
	}
	want := map[model.CoreID]int{0: 3, 1: 2, 2: 3, 3: 3}
	for k, n := range want {
		if perCore[k] != n {
			t.Errorf("core %d has %d tasks, want %d", k, perCore[k], n)
		}
	}
	if g.Name(10) != "n10" {
		t.Errorf("task 10 name = %q", g.Name(10))
	}
}

func TestAvionicsShape(t *testing.T) {
	g := Avionics()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumTasks() != 13 {
		t.Fatalf("avionics: %d tasks", g.NumTasks())
	}
	names := map[string]bool{}
	for i := 0; i < g.NumTasks(); i++ {
		names[g.Name(model.TaskID(i))] = true
	}
	for _, want := range []string{"aircraft_dyn", "altitude_hold", "vz_control", "engine'"} {
		if !names[want] {
			t.Errorf("missing task %q", want)
		}
	}
	if !strings.HasPrefix(g.Name(0), "engine") {
		t.Errorf("task 0 = %q", g.Name(0))
	}
}
