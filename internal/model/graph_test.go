package model

import (
	"strings"
	"testing"
)

func TestCloneIsDeep(t *testing.T) {
	g := twoCoreGraph(t, 2, BankPerCore)
	c := g.Clone()
	c.WCET[0] = 999
	c.Demand[0] = 999
	c.OrderIDs[0] = 1
	if g.WCET[0] == 999 {
		t.Error("Clone shares the WCET array")
	}
	if g.Demand[0] == 999 {
		t.Error("Clone shares the demand matrix")
	}
	if g.OrderIDs[0] != 0 {
		t.Error("Clone shares the order CSR")
	}
	c.OrderIDs[0] = 0
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
	if unnamed := NewGraph(g.Raw().Clone(), nil); g.Name(0) != "p" || unnamed.Name(1) != "n1" {
		t.Errorf("Name = %q, %q; want p and the default n1", g.Name(0), unnamed.Name(1))
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
		// Task IDs are array positions; the order CSR is where an ID is
		// stored, so that is where one can be corrupted.
		g := fresh(t)
		g.OrderIDs[0] = 5
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "unknown task 5") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("order missing task", func(t *testing.T) {
		g := fresh(t)
		g.SetOrder(0, nil)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "execution orders list 1 tasks") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("order duplicate", func(t *testing.T) {
		g := chainGraph(t, 3)
		g.SetOrder(0, []TaskID{0, 0, 2})
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("order wrong core", func(t *testing.T) {
		g := fresh(t)
		g.SetOrder(0, []TaskID{1})
		g.SetOrder(1, []TaskID{0})
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "mapped to core") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("negative demand", func(t *testing.T) {
		g := fresh(t)
		g.Demand[0] = -1
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
		g.WCET[0] = over
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "MaxInput") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("min release", func(t *testing.T) {
		g := fresh(t)
		g.MinRelease[0] = over
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "MaxInput") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("demand", func(t *testing.T) {
		g := fresh(t)
		g.Demand[0] = Accesses(MaxInput) + 1
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "MaxInput") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("edge volume", func(t *testing.T) {
		g := fresh(t)
		g.RawGraph.Edges[0].Words = Accesses(MaxInput) + 1
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "MaxInput") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("at the bound is legal", func(t *testing.T) {
		g := fresh(t)
		g.WCET[0] = MaxInput
		g.MinRelease[0] = MaxInput
		if err := g.Validate(); err != nil {
			t.Fatalf("MaxInput itself must validate: %v", err)
		}
	})
}
