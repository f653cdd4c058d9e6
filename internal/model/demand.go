package model

// Bank-assignment policies map cores to the memory bank holding their
// reserved data. The paper (Section IV.A) notes that the shared memory "may
// have distinct arbitrated banks reserved for each core to minimize
// interference"; the two standard policies below cover the evaluated
// configurations, and callers may supply any custom function.

// SharedBank maps every core to bank 0: all tasks compete on a single
// arbitrated bank, the maximal-interference configuration.
func SharedBank(CoreID) BankID { return 0 }

// BankPerCore reserves bank k for core k. It requires Banks >= Cores; the
// demand compiler wraps around otherwise.
func BankPerCore(k CoreID) BankID { return BankID(k) }

// StripedBanks returns a policy mapping core k to bank k mod banks, the
// generalization of BankPerCore to platforms with fewer banks than cores.
func StripedBanks(banks int) func(CoreID) BankID {
	return func(k CoreID) BankID { return BankID(int(k) % banks) }
}

// CompileDemands fills every task's per-bank demand vector from the graph's
// local access counts and communication edges, under the given
// bank-assignment policy:
//
//   - a task's Local accesses are charged to the bank of its own core
//     (its code and private data live there);
//   - for every edge τ→τ', the Words written by the producer are charged to
//     τ's demand on the *consumer's* bank, since the producer pushes its
//     output into the consumer's reserved bank (the write counts shown on
//     the DAG edges of the paper's Figure 1).
//
// The policy's results are folded modulo the graph's bank count so that any
// policy is safe on any platform. CompileDemands may be called again to
// re-derive demands under a different policy.
func (g *Graph) CompileDemands(bankOf func(CoreID) BankID) {
	if bankOf == nil {
		bankOf = SharedBank
	}
	g.bankOf = func(k CoreID) BankID {
		return BankID(int(bankOf(k)) % g.Banks)
	}
	for _, t := range g.tasks {
		t.Demand = make([]Accesses, g.Banks)
		t.Demand[g.bankOf(t.Core)] += t.Local
	}
	for _, e := range g.edges {
		src := g.tasks[e.From]
		dstBank := g.bankOf(g.tasks[e.To].Core)
		src.Demand[dstBank] += e.Words
	}
}
