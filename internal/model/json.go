package model

import (
	"encoding/json"
	"fmt"
	"io"
)

// graphJSON is the on-disk representation of a task graph, consumed and
// produced by the cmd/ tools. The format is deliberately flat and explicit
// so graphs can be authored by hand or emitted by external toolchains
// (e.g. a dataflow compiler front end).
type graphJSON struct {
	Cores int        `json:"cores"`
	Banks int        `json:"banks"`
	Tasks []taskJSON `json:"tasks"`
	Edges []edgeJSON `json:"edges"`
	// Order optionally fixes the per-core execution order; when omitted the
	// topological default is used. Order[k] lists task IDs for core k.
	Order [][]TaskID `json:"order,omitempty"`
	// BankPolicy selects the demand-compilation policy: "perCore" (default
	// when banks >= cores), "shared", or "striped".
	BankPolicy string `json:"bankPolicy,omitempty"`
}

type taskJSON struct {
	ID         TaskID   `json:"id"`
	Name       string   `json:"name,omitempty"`
	WCET       Cycles   `json:"wcet"`
	Core       CoreID   `json:"core"`
	MinRelease Cycles   `json:"minRelease,omitempty"`
	Local      Accesses `json:"local,omitempty"`
}

type edgeJSON struct {
	From  TaskID   `json:"from"`
	To    TaskID   `json:"to"`
	Words Accesses `json:"words"`
}

// WriteJSON serializes the graph to w in the documented JSON format. An
// idle core's order is written as null.
func (g *Graph) WriteJSON(w io.Writer) error {
	out := graphJSON{Cores: g.Cores, Banks: g.Banks, Order: make([][]TaskID, g.Cores)}
	for k := range out.Order {
		if order := g.Order(CoreID(k)); len(order) > 0 {
			out.Order[k] = order
		}
	}
	for i := 0; i < g.NumTasks(); i++ {
		id := TaskID(i)
		out.Tasks = append(out.Tasks, taskJSON{
			ID: id, Name: g.Name(id), WCET: g.WCET[i], Core: g.Core[i],
			MinRelease: g.MinRelease[i], Local: g.Local[i],
		})
	}
	for _, e := range g.Edges() {
		out.Edges = append(out.Edges, edgeJSON{From: e.From, To: e.To, Words: e.Words})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON reads a graph document from r and decodes it with the same
// single-pass scanner as DecodeJSON, keeping the task names: it accepts
// exactly what DecodeJSON accepts and yields the graph with the same
// fingerprint. Tasks may appear in any order but their IDs must form the
// dense range 0..n-1; a task without a name is named "n<id>", as Builder
// names it.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("model: reading graph JSON: %w", err)
	}
	d := jsonDecoder{data: data, wantNames: true}
	raw, err := d.decode()
	if err != nil {
		return nil, err
	}
	return NewGraph(raw, d.names), nil
}
