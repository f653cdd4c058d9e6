package model

import (
	"fmt"
	"io"
)

// WriteDOT renders the task graph in Graphviz DOT syntax, one subgraph
// cluster per core, with edge labels carrying write volumes — the same
// presentation as the DAG of the paper's Figure 1. The output is meant for
// human inspection of small graphs.
func (g *Graph) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph taskgraph {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=TB;")
	fmt.Fprintln(w, "  node [shape=box, fontname=\"monospace\"];")
	for k := 0; k < g.Cores; k++ {
		order := g.Order(CoreID(k))
		if len(order) == 0 {
			continue
		}
		fmt.Fprintf(w, "  subgraph cluster_core%d {\n", k)
		fmt.Fprintf(w, "    label=\"%s\";\n", CoreID(k))
		for _, id := range order {
			fmt.Fprintf(w, "    t%d [label=\"%s\\nC=%d\"];\n", id, g.Name(id), g.WCET[id])
		}
		fmt.Fprintln(w, "  }")
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(w, "  t%d -> t%d [label=\"%d\"];\n", e.From, e.To, e.Words)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
