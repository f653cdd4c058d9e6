package model

import "fmt"

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

// defaultPolicy is the policy Builder and DecodeJSON use when none is
// given: a bank per core when the platform has at least one bank per core,
// a single shared bank otherwise.
func defaultPolicy(cores, banks int) func(CoreID) BankID {
	if banks >= cores {
		return BankPerCore
	}
	return SharedBank
}

// CompileDemands re-derives every task's per-bank demand row from the
// graph's local access counts and communication edges, under the given
// bank-assignment policy (SharedBank when nil):
//
//   - a task's Local accesses are charged to the bank of its own core
//     (its code and private data live there);
//   - for every edge τ→τ', the Words written by the producer are charged to
//     τ's demand on the *consumer's* bank, since the producer pushes its
//     output into the consumer's reserved bank (the write counts shown on
//     the DAG edges of the paper's Figure 1).
//
// The policy's results are folded modulo the graph's bank count into
// BankTable, so any policy is safe on any platform. A core or edge
// endpoint out of range stops the compilation; Validate reports it.
func (g *Graph) CompileDemands(bankOf func(CoreID) BankID) {
	if bankOf == nil {
		bankOf = SharedBank
	}
	_ = g.compileDemands(bankOf) // an index out of range is Validate's to report
}

// compileDemands is the demand compiler behind CompileDemands, Builder and
// DecodeJSON: it sets BankTable from the policy and fills the demand
// matrix, accumulating locals first and then edges in source order. Cores
// and edge endpoints are range-checked first, since the compilation
// indexes by them; every other value is left to Validate.
func (r *RawGraph) compileDemands(bankOf func(CoreID) BankID) error {
	table := make([]BankID, r.Cores) // a policy reading BankTable sees the old one
	for k := range table {
		table[k] = BankID(int(bankOf(CoreID(k))) % r.Banks)
	}
	r.BankTable = table
	n, banks := r.NumTasks(), r.Banks
	r.Demand = make([]Accesses, n*banks)
	for i, c := range r.Core {
		if c < 0 || int(c) >= r.Cores {
			return fmt.Errorf("model: %s mapped to core %d, platform has %d cores", TaskID(i), c, r.Cores)
		}
		r.Demand[i*banks+int(r.BankTable[c])] += r.Local[i]
	}
	for _, e := range r.Edges {
		switch {
		case e.From < 0 || int(e.From) >= n:
			return fmt.Errorf("model: edge source %d out of range", e.From)
		case e.To < 0 || int(e.To) >= n:
			return fmt.Errorf("model: edge target %d out of range", e.To)
		}
		r.Demand[int(e.From)*banks+int(r.BankTable[r.Core[e.To]])] += e.Words
	}
	return nil
}
