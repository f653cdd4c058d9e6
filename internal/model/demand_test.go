package model

import (
	"testing"
	"testing/quick"
)

// twoCoreGraph: producer on core 0 writes 7 words to consumer on core 1,
// with local access counts 5 and 3.
func twoCoreGraph(t testing.TB, banks int, policy func(CoreID) BankID) *Graph {
	t.Helper()
	b := NewBuilder(2, banks)
	p := b.AddTask(TaskSpec{Name: "p", WCET: 10, Core: 0, Local: 5})
	c := b.AddTask(TaskSpec{Name: "c", WCET: 10, Core: 1, Local: 3})
	b.AddEdge(p, c, 7)
	if policy != nil {
		b.SetBankPolicy(policy)
	}
	return b.MustBuild()
}

func TestCompileDemandsPerCore(t *testing.T) {
	g := twoCoreGraph(t, 2, BankPerCore)
	p, c := g.Task(0), g.Task(1)
	// Producer: 5 local on bank 0, 7 written into consumer's bank 1.
	if p.Demand[0] != 5 || p.Demand[1] != 7 {
		t.Errorf("producer demand = %v, want [5 7]", p.Demand)
	}
	// Consumer: 3 local on bank 1 only.
	if c.Demand[0] != 0 || c.Demand[1] != 3 {
		t.Errorf("consumer demand = %v, want [0 3]", c.Demand)
	}
}

func TestCompileDemandsShared(t *testing.T) {
	g := twoCoreGraph(t, 1, nil) // one bank forces SharedBank default
	p, c := g.Task(0), g.Task(1)
	if p.Demand[0] != 12 { // 5 local + 7 written
		t.Errorf("producer demand = %v, want [12]", p.Demand)
	}
	if c.Demand[0] != 3 {
		t.Errorf("consumer demand = %v, want [3]", c.Demand)
	}
}

func TestCompileDemandsPolicyWraparound(t *testing.T) {
	// A policy returning out-of-range banks must be folded modulo Banks.
	g := twoCoreGraph(t, 2, func(k CoreID) BankID { return BankID(int(k) + 10) })
	p := g.Task(0)
	// Core 0 -> bank 10 mod 2 = 0; core 1 -> bank 11 mod 2 = 1.
	if p.Demand[0] != 5 || p.Demand[1] != 7 {
		t.Errorf("producer demand = %v, want [5 7]", p.Demand)
	}
}

func TestRecompileDemands(t *testing.T) {
	g := twoCoreGraph(t, 2, BankPerCore)
	g.CompileDemands(SharedBank)
	p := g.Task(0)
	if p.Demand[0] != 12 || p.Demand[1] != 0 {
		t.Errorf("recompiled demand = %v, want [12 0]", p.Demand)
	}
	if g.BankOf(1) != 0 {
		t.Errorf("BankOf(1) = %v after recompilation, want bank0", g.BankOf(1))
	}
}

func TestStripedBanks(t *testing.T) {
	policy := StripedBanks(3)
	for k, want := range map[CoreID]BankID{0: 0, 1: 1, 2: 2, 3: 0, 4: 1} {
		if got := policy(k); got != want {
			t.Errorf("striped(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestTotalDemand(t *testing.T) {
	g := twoCoreGraph(t, 2, BankPerCore)
	if got := g.Task(0).TotalDemand(); got != 12 {
		t.Errorf("TotalDemand = %d, want 12", got)
	}
	var empty Task
	if empty.TotalDemand() != 0 {
		t.Error("TotalDemand of demandless task must be 0")
	}
	short := &Task{ID: 1, Core: 1, Demand: []Accesses{1, 5}}
	if !short.AccessesBank(1) || empty.AccessesBank(1) || short.AccessesBank(2) {
		t.Error("AccessesBank out-of-range handling wrong")
	}
}

func TestDemandConservationProperty(t *testing.T) {
	// Property: total compiled demand equals total local accesses plus total
	// edge volumes, for any bank policy.
	check := func(seed uint8, shared bool) bool {
		n := 3 + int(seed)%10
		b := NewBuilder(4, 4)
		var wantTotal Accesses
		for i := 0; i < n; i++ {
			local := Accesses(int(seed)%7 + i)
			wantTotal += local
			b.AddTask(TaskSpec{WCET: 1, Core: CoreID(i % 4), Local: local})
		}
		for i := 0; i+1 < n; i++ {
			words := Accesses(i % 5)
			wantTotal += words
			b.AddEdge(TaskID(i), TaskID(i+1), words)
		}
		if shared {
			b.SetBankPolicy(SharedBank)
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var got Accesses
		for _, task := range g.Tasks() {
			got += task.TotalDemand()
		}
		return got == wantTotal
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
