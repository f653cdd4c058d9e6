package model

import (
	"strings"
	"testing"
)

func TestCloneIsDeep(t *testing.T) {
	g := twoCoreGraph(t, 2, BankPerCore)
	c := g.Clone()
	c.Task(0).WCET = 999
	c.Task(0).Demand[0] = 999
	c.SetOrder(0, []TaskID{0})
	if g.Task(0).WCET == 999 {
		t.Error("Clone shares task structs")
	}
	if g.Task(0).Demand[0] == 999 {
		t.Error("Clone shares demand slices")
	}
	if c.NumTasks() != g.NumTasks() || len(c.Edges()) != len(g.Edges()) {
		t.Error("Clone lost structure")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone validation: %v", err)
	}
}

func TestStats(t *testing.T) {
	g := twoCoreGraph(t, 2, BankPerCore)
	s := g.Stats()
	if s.Tasks != 2 || s.Edges != 1 || s.Cores != 2 || s.Banks != 2 {
		t.Errorf("Stats = %+v", s)
	}
	if s.TotalWCET != 20 {
		t.Errorf("TotalWCET = %d, want 20", s.TotalWCET)
	}
	if s.MaxDegree != 1 {
		t.Errorf("MaxDegree = %d, want 1", s.MaxDegree)
	}
}

func TestStringers(t *testing.T) {
	g := twoCoreGraph(t, 2, BankPerCore)
	if s := g.String(); !strings.Contains(s, "tasks=2") {
		t.Errorf("Graph.String = %q", s)
	}
	if s := g.Task(0).String(); !strings.Contains(s, "τ0") || !strings.Contains(s, `"p"`) {
		t.Errorf("Task.String = %q", s)
	}
	if TaskID(3).String() != "τ3" || NoTask.String() != "τ?" {
		t.Error("TaskID.String wrong")
	}
	if CoreID(2).String() != "PE2" {
		t.Error("CoreID.String wrong")
	}
	if BankID(1).String() != "bank1" {
		t.Error("BankID.String wrong")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	fresh := func(t *testing.T) *Graph { return twoCoreGraph(t, 2, BankPerCore) }

	t.Run("id mismatch", func(t *testing.T) {
		g := fresh(t)
		g.tasks[0].ID = 5
		if err := g.Validate(); err == nil {
			t.Fatal("corrupted ID not detected")
		}
	})
	t.Run("order missing task", func(t *testing.T) {
		g := fresh(t)
		g.order[0] = nil
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cover") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("order duplicate", func(t *testing.T) {
		g := fresh(t)
		g.order[0] = []TaskID{0, 0}
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("order wrong core", func(t *testing.T) {
		g := fresh(t)
		g.order[0] = []TaskID{1}
		g.order[1] = []TaskID{0}
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "mapped to core") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("negative demand", func(t *testing.T) {
		g := fresh(t)
		g.tasks[0].Demand[0] = -1
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "negative demand") {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestValidateRejectsOverflowMagnitudes pins the MaxInput overflow guard:
// huge-but-finite magnitudes (which JSON can carry even though NaN/Inf
// cannot) must be rejected before the schedulers accumulate them into int64
// overflow. Values exactly at the bound stay legal.
func TestValidateRejectsOverflowMagnitudes(t *testing.T) {
	fresh := func(t *testing.T) *Graph { return twoCoreGraph(t, 2, BankPerCore) }
	over := Cycles(MaxInput) + 1

	t.Run("wcet", func(t *testing.T) {
		g := fresh(t)
		g.tasks[0].WCET = over
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "MaxInput") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("min release", func(t *testing.T) {
		g := fresh(t)
		g.tasks[0].MinRelease = over
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "MaxInput") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("demand", func(t *testing.T) {
		g := fresh(t)
		g.tasks[0].Demand[0] = Accesses(MaxInput) + 1
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "MaxInput") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("edge volume", func(t *testing.T) {
		g := fresh(t)
		g.edges[0].Words = Accesses(MaxInput) + 1
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "MaxInput") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("at the bound is legal", func(t *testing.T) {
		g := fresh(t)
		g.tasks[0].WCET = MaxInput
		g.tasks[0].MinRelease = MaxInput
		if err := g.Validate(); err != nil {
			t.Fatalf("MaxInput itself must validate: %v", err)
		}
	})
}

func TestBankOfDefault(t *testing.T) {
	g := &Graph{Cores: 2, Banks: 2}
	if g.BankOf(1) != 0 {
		t.Error("BankOf before demand compilation must default to bank 0")
	}
}
