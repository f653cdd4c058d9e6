package model

import (
	"bytes"
	"strings"
	"testing"
)

// readJSONSeeds seed both FuzzReadJSON and the differential FuzzDecodeJSON.
var readJSONSeeds = []string{
	`{"cores":1,"banks":1,"tasks":[],"edges":[]}`,
	`{"cores":2,"banks":2,"tasks":[{"id":0,"wcet":5,"core":0},{"id":1,"wcet":5,"core":1}],"edges":[{"from":0,"to":1,"words":3}]}`,
	`{"cores":4,"banks":1,"tasks":[{"id":0,"name":"x","wcet":1,"core":3,"minRelease":7,"local":9}],"edges":[],"bankPolicy":"shared"}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1,"core":0}],"edges":[],"order":[[0]]}`,
	`{`,
	`[]`,
	`{"cores":-1}`,
	// Malformed platform indices: cores/banks out of range must be
	// rejected, never indexed with.
	`{"cores":2,"banks":2,"tasks":[{"id":0,"wcet":1,"core":2}],"edges":[]}`,
	`{"cores":2,"banks":2,"tasks":[{"id":0,"wcet":1,"core":-1}],"edges":[]}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1,"core":9223372036854775807}],"edges":[]}`,
	`{"cores":2,"banks":1,"tasks":[{"id":0,"wcet":1,"core":0},{"id":1,"wcet":1,"core":1}],"edges":[{"from":0,"to":1,"words":1}],"order":[[0],[1],[0]]}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1,"core":0}],"edges":[],"order":[[0,0]]}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1,"core":0}],"edges":[],"order":[[7]]}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1,"core":0}],"edges":[],"bankPolicy":"no-such-policy"}`,
	`{"cores":2,"banks":2,"tasks":[{"id":0,"wcet":1,"core":0}],"edges":[{"from":0,"to":0,"words":1}]}`,
	`{"cores":2,"banks":2,"tasks":[{"id":0,"wcet":1,"core":0}],"edges":[{"from":-1,"to":0,"words":1}]}`,
	// Overflow guards: huge-but-finite magnitudes (2^40+1, past
	// model.MaxInput) must be rejected, not accumulated into int64
	// overflow; the value exactly at the bound is legal.
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1099511627777,"core":0}],"edges":[]}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1,"core":0,"minRelease":1099511627777}],"edges":[]}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1,"core":0,"local":1099511627777}],"edges":[]}`,
	`{"cores":2,"banks":2,"tasks":[{"id":0,"wcet":1,"core":0},{"id":1,"wcet":1,"core":1}],"edges":[{"from":0,"to":1,"words":1099511627777}]}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1099511627776,"core":0}],"edges":[]}`,
	// Platform shapes past the shape limits: a 62-byte document asking
	// for 10^12 cores, and one task on 10^12 banks. Both must be
	// rejected before anything is sized by them.
	`{"cores": 1000000000000, "banks": 1, "tasks": [], "edges": []}`,
	`{"cores": 1, "banks": 1000000000000, "tasks": [{"id": 0, "wcet": 1, "core": 0}], "edges": []}`,
}

// FuzzReadJSON checks the graph parser never panics and that everything it
// accepts is structurally valid and survives a serialization round trip.
func FuzzReadJSON(f *testing.F) {
	for _, s := range readJSONSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted graph fails serialization: %v", err)
		}
		g2, err := ReadJSON(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if g2.NumTasks() != g.NumTasks() || len(g2.Edges()) != len(g.Edges()) {
			t.Fatal("round trip changed the structure")
		}
	})
}
