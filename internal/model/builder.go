package model

import "fmt"

// Builder assembles a Graph incrementally. It is the programmatic entry
// point used by the examples, the tests and the random generators in
// internal/gen; the JSON loader (DecodeJSON) fills the same flat form
// directly and shares Builder's demand compiler and default orders.
//
// Usage:
//
//	b := model.NewBuilder(4, 4)
//	n0 := b.AddTask(model.TaskSpec{Name: "n0", WCET: 2, Core: 0})
//	n1 := b.AddTask(model.TaskSpec{Name: "n1", WCET: 2, Core: 1, MinRelease: 2})
//	b.AddEdge(n0, n1, 1)
//	g, err := b.Build()
//
// Build compiles per-bank demands under the builder's bank policy (per-core
// banks when the platform has at least one bank per core, a single shared
// bank otherwise), computes the default per-core execution order (the
// smallest-ID-first topological order) for every core whose order was not
// set explicitly, and validates the result.
type Builder struct {
	cores int
	banks int

	specs  []TaskSpec
	edges  []Edge
	orders map[CoreID][]TaskID
	bankOf func(CoreID) BankID

	err error // first structural error, reported by Build
}

// TaskSpec is the user-facing description of a task, consumed by Builder.
// The zero value of optional fields means "default".
type TaskSpec struct {
	Name       string // "n<id>" when empty
	WCET       Cycles
	Core       CoreID
	MinRelease Cycles
	Local      Accesses
}

// NewBuilder returns a Builder for a platform with the given number of cores
// and arbitrated memory banks. Both must be at least 1.
func NewBuilder(cores, banks int) *Builder {
	b := &Builder{cores: cores, banks: banks, orders: make(map[CoreID][]TaskID)}
	if cores < 1 || banks < 1 {
		b.err = fmt.Errorf("model: builder needs at least 1 core and 1 bank, got %d cores, %d banks", cores, banks)
	}
	return b
}

// AddTask records a task and returns its ID. IDs are assigned densely in
// insertion order. Structural problems (negative WCET, core out of range)
// are reported by Build, so call sites can chain AddTask without per-call
// error handling.
func (b *Builder) AddTask(spec TaskSpec) TaskID {
	id := TaskID(len(b.specs))
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("n%d", id)
	}
	if b.err == nil {
		switch {
		case spec.WCET < 0:
			b.err = fmt.Errorf("model: task %q has negative WCET %d", spec.Name, spec.WCET)
		case spec.Core < 0 || int(spec.Core) >= b.cores:
			b.err = fmt.Errorf("model: task %q mapped to core %d, platform has %d cores", spec.Name, spec.Core, b.cores)
		case spec.MinRelease < 0:
			b.err = fmt.Errorf("model: task %q has negative minimal release %d", spec.Name, spec.MinRelease)
		case spec.Local < 0:
			b.err = fmt.Errorf("model: task %q has negative local access count %d", spec.Name, spec.Local)
		}
	}
	b.specs = append(b.specs, spec)
	return id
}

// AddEdge records a dependency: to cannot start before from has finished,
// and from writes words words into to's memory bank.
func (b *Builder) AddEdge(from, to TaskID, words Accesses) {
	if b.err == nil {
		switch {
		case from < 0 || int(from) >= len(b.specs):
			b.err = fmt.Errorf("model: edge source %d out of range", from)
		case to < 0 || int(to) >= len(b.specs):
			b.err = fmt.Errorf("model: edge target %d out of range", to)
		case from == to:
			b.err = fmt.Errorf("model: self-dependency on task %d", from)
		case words < 0:
			b.err = fmt.Errorf("model: edge %d->%d has negative write volume %d", from, to, words)
		}
	}
	b.edges = append(b.edges, Edge{From: from, To: to, Words: words})
}

// SetOrder fixes the execution order of core k explicitly instead of the
// default topological order. The slice must list exactly the tasks mapped to
// k; Build validates this.
func (b *Builder) SetOrder(k CoreID, order []TaskID) {
	b.orders[k] = append([]TaskID(nil), order...)
}

// SetBankPolicy overrides the bank-assignment policy used by the demand
// compiler. The default is BankPerCore when banks >= cores, SharedBank
// otherwise.
func (b *Builder) SetBankPolicy(bankOf func(CoreID) BankID) {
	b.bankOf = bankOf
}

// Build validates the accumulated tasks and edges and returns the graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.specs)
	r := RawGraph{
		Cores:      b.cores,
		Banks:      b.banks,
		WCET:       make([]Cycles, n),
		MinRelease: make([]Cycles, n),
		Core:       make([]CoreID, n),
		Local:      make([]Accesses, n),
		Edges:      append([]Edge(nil), b.edges...),
	}
	names := make([]string, n)
	for i, spec := range b.specs {
		names[i] = spec.Name
		r.WCET[i], r.MinRelease[i] = spec.WCET, spec.MinRelease
		r.Core[i], r.Local[i] = spec.Core, spec.Local
	}
	policy := b.bankOf
	if policy == nil {
		policy = defaultPolicy(b.cores, b.banks)
	}
	if err := r.compileDemands(policy); err != nil {
		return nil, err
	}
	if err := r.fillOrders(func(k CoreID) ([]TaskID, bool) {
		order, ok := b.orders[k]
		return order, ok
	}); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return NewGraph(&r, names), nil
}

// MustBuild is Build for tests and examples with known-good inputs; it
// panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
