package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

// referenceReadJSON is the encoding/json graph decoder ReadJSON was built
// on before the single-pass scanner, kept as an independent oracle for
// FuzzDecodeJSON. It adds two of the rules the scanner introduced on
// purpose: nothing but whitespace may follow the graph object, and the
// platform shape stays within MaxCores, MaxBanks, MaxTasks and
// MaxDemandCells (without them a 62-byte document asking for 10^12 cores
// exhausts memory inside Build, which no recover can catch). The third,
// exact member names given once each, is the differential check's own
// split (spelledExactly): encoding/json folds case and lets a repeated
// member win.
func referenceReadJSON(data []byte) (*Graph, error) {
	var in graphJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("parsing graph JSON: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, errors.New("trailing data after the graph object")
	}
	if in.Cores > MaxCores || in.Banks > MaxBanks || len(in.Tasks) > MaxTasks || len(in.Tasks)*in.Banks > MaxDemandCells {
		return nil, errors.New("platform shape past the limits")
	}
	specs := make([]TaskSpec, len(in.Tasks))
	seen := make([]bool, len(in.Tasks))
	for _, t := range in.Tasks {
		if t.ID < 0 || int(t.ID) >= len(in.Tasks) {
			return nil, fmt.Errorf("task ID %d outside dense range 0..%d", t.ID, len(in.Tasks)-1)
		}
		if seen[t.ID] {
			return nil, fmt.Errorf("duplicate task ID %d", t.ID)
		}
		seen[t.ID] = true
		specs[t.ID] = TaskSpec{Name: t.Name, WCET: t.WCET, Core: t.Core, MinRelease: t.MinRelease, Local: t.Local}
	}
	b := NewBuilder(in.Cores, in.Banks)
	for _, spec := range specs {
		b.AddTask(spec)
	}
	for _, e := range in.Edges {
		b.AddEdge(e.From, e.To, e.Words)
	}
	if len(in.Order) > in.Cores {
		return nil, fmt.Errorf("%d order lists for %d cores", len(in.Order), in.Cores)
	}
	for k, order := range in.Order {
		b.SetOrder(CoreID(k), order)
	}
	switch in.BankPolicy {
	case "", "default":
	case "shared":
		b.SetBankPolicy(SharedBank)
	case "perCore":
		b.SetBankPolicy(BankPerCore)
	case "striped":
		b.SetBankPolicy(func(k CoreID) BankID { return BankID(int(k) % in.Banks) })
	default:
		return nil, fmt.Errorf("unknown bank policy %q", in.BankPolicy)
	}
	return b.Build()
}

// decodeJSONQuirkSeeds are corner cases of the format: member names
// encoding/json accepts and the scanner refuses on purpose, JSON forms both
// decoders read alike, and number forms both reject.
var decodeJSONQuirkSeeds = []string{
	// Names the scanner refuses. Case-folded names, including the Unicode
	// folds encoding/json applies (U+212A KELVIN SIGN ~ k, U+017F LONG
	// S ~ s), are unknown fields.
	`{"CORES":1,"Banks":1,"TASKS":[{"ID":0,"WCET":3,"Core":0,"minrelease":2,"LOCAL":1,"NAME":"a"}],"EDGES":[],"ORDER":[[0]],"BANKPOLICY":"shared"}`,
	`{"cores":1,"ban\u212As":1,"ta\u017Fks":[{"id":0,"wcet":1,"core":0}]}`,
	"{\"cores\":1,\"ban\xe2\x84\xaas\":1}",
	// Repeated names are duplicate fields, where encoding/json lets the
	// last value win and merges a repeated array into the earlier one
	// element by element.
	`{"cores":1,"cores":2,"banks":2,"tasks":[{"id":0,"wcet":1,"core":0,"wcet":5}],"edges":[]}`,
	`{"cores":2,"banks":2,"tasks":[{"id":0,"wcet":1,"core":1,"name":"a"},{"id":1,"wcet":2,"core":0}],"tasks":[{"id":0}],"tasks":[{"id":0},{"id":1}],"edges":[]}`,
	`{"cores":2,"banks":2,"tasks":[{"id":0,"wcet":1,"core":1},{"id":1,"wcet":1,"core":1}],"tasks":[],"tasks":[{"id":0},{"id":1}]}`,
	`{"cores":2,"banks":2,"tasks":[{"id":0,"core":0},{"id":1,"core":1}],"edges":[{"from":0,"to":1,"words":2},{"from":1,"to":0}],"edges":[{"words":7}]}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"core":0},{"id":1,"core":0}],"edges":[],"order":[[0,1]],"order":[[null,1]]}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"core":0},{"id":1,"core":0}],"edges":[],"order":[[1,0]],"order":[[0,null]]}`,
	`{"cores":1,"banks":1,"bankPolicy":"bogus","bankPolicy":"shared","bankPolicy":null}`,
	// A name spelled with escapes is spelled exactly once they decode.
	`{"c\u006fres":1,"banks":1,"tasks":[{"\u0069d":0,"wcet":1,"core":0}],"edges":[]}`,
	// null: an empty order for its core, an unset field, a zero task.
	`{"cores":2,"banks":2,"tasks":[{"id":0,"wcet":1,"core":0}],"edges":[],"order":[[0],null]}`,
	`{"cores":2,"banks":2,"tasks":[{"id":0,"wcet":1,"core":1}],"edges":[],"order":[[0],null]}`,
	`{"cores":1,"banks":1,"tasks":[null],"edges":null,"order":null,"bankPolicy":null}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":null,"core":0,"name":null}],"cores":null}`,
	// Orders for some cores only: the rest get the topological default.
	`{"cores":2,"banks":2,"tasks":[{"id":0,"wcet":1,"core":1},{"id":1,"wcet":1,"core":0},{"id":2,"wcet":1,"core":1}],"edges":[{"from":2,"to":0,"words":1}],"order":[[1]]}`,
	`{"cores":3,"banks":1,"tasks":[{"id":0,"wcet":1,"core":2},{"id":1,"wcet":1,"core":2}],"edges":[{"from":1,"to":0,"words":1}],"order":[]}`,
	// Escaped and malformed names: escapes, surrogate pairs, an unpaired
	// surrogate and raw invalid UTF-8 all decode as encoding/json does.
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1,"core":0,"name":"a\"b\\c\u00e9\ud83d\ude00\ud800x\/\b\f\n\r\t"}],"edges":[]}`,
	"{\"cores\":1,\"banks\":1,\"tasks\":[{\"id\":0,\"wcet\":1,\"core\":0,\"name\":\"\xff\xfe ok \xe2\x82\"}],\"edges\":[]}",
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1,"core":0,"name":""}],"edges":[]}`,
	// Tasks out of ID order, -0, and surrounding whitespace.
	"\r\n\t {\"cores\":2,\"banks\":2,\"tasks\":[{\"id\":1,\"wcet\":2,\"core\":1},{\"id\":-0,\"wcet\":1,\"core\":0}],\"edges\":[{\"from\":0,\"to\":1,\"words\":4}]} \n",
	// Number forms the reference rejects: fractions, exponents, leading
	// zeros, int64 overflow, strings and booleans.
	`{"cores":1.0,"banks":1}`,
	`{"cores":1e2,"banks":1}`,
	`{"cores":01,"banks":1}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":9223372036854775808,"core":0}]}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":-9223372036854775809,"core":0}]}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1,"core":0,"minRelease":-9223372036854775808}]}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":123456789012345678901234567890,"core":0}]}`,
	`{"cores":"1","banks":1}`,
	`{"cores":true,"banks":1}`,
	`{"cores":-,"banks":1}`,
	// Structural errors.
	`{"cores":1,"banks":1,}`,
	`{"cores":1 "banks":1}`,
	`{"cores":1,"banks":1,"tasks":{}}`,
	`{"cores":1,"banks":1,"tasks":[1]}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"core":0,"name":"\x"}]}`,
	"{\"cores\":1,\"banks\":1,\"tasks\":[{\"id\":0,\"core\":0,\"name\":\"a\x01\"}]}",
	`{"cores":1,"banks":1,"order":[[0],5]}`,
	`{"cores":1,"banks":1,"unknown":1}`,
	`{"cores":1,"banks":1,"tasks":[{"id":0,"core":0,"extra":1}]}`,
	`null`,
	``,
	`   `,
	// Shape limits: exactly at them is legal.
	`{"cores":65536,"banks":65536,"tasks":[],"edges":[]}`,
	`{"cores":65537,"banks":1}`,
	`{"cores":1,"banks":65537}`,
}

// FuzzDecodeJSON holds the scanner to the encoding/json reference. On a
// document whose member names are all spelled as WriteJSON spells them and
// none repeats in its object, the three decoders accept exactly the same
// documents, and on acceptance ReadJSON and DecodeJSON yield the reference
// graph's fingerprint, task fields and names, edges, orders and bank
// assignment. ReadJSON and DecodeJSON refuse every other document.
func FuzzDecodeJSON(f *testing.F) {
	for _, s := range readJSONSeeds {
		f.Add([]byte(s))
	}
	for _, s := range decodeJSONQuirkSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}

func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	got, gerr := ReadJSON(bytes.NewReader(data))
	raw, rerr := DecodeJSON(data)
	if !spelledExactly(data) {
		if gerr == nil || rerr == nil {
			t.Fatalf("member names not spelled as WriteJSON spells them, or repeated, accepted on %q:\n ReadJSON:   %v\n DecodeJSON: %v", data, gerr, rerr)
		}
		return
	}
	want, werr := referenceReadJSON(data)
	if (werr == nil) != (gerr == nil) || (werr == nil) != (rerr == nil) {
		t.Fatalf("acceptance differs on %q:\n reference:  %v\n ReadJSON:   %v\n DecodeJSON: %v", data, werr, gerr, rerr)
	}
	if werr != nil {
		return
	}
	fp := want.Fingerprint()
	if got.Fingerprint() != fp || raw.Fingerprint() != fp {
		t.Fatalf("fingerprints differ on %q: reference %s, ReadJSON %s, DecodeJSON %s", data, fp, got.Fingerprint(), raw.Fingerprint())
	}
	if got.NumTasks() != want.NumTasks() || got.Cores != want.Cores || got.Banks != want.Banks {
		t.Fatalf("shape differs on %q: %v vs %v", data, got, want)
	}
	task := func(g *Graph, i int) string {
		return fmt.Sprint(g.Name(TaskID(i)), g.WCET[i], g.Core[i], g.MinRelease[i], g.Local[i], g.DemandRow(TaskID(i)))
	}
	for i := 0; i < want.NumTasks(); i++ {
		id := TaskID(i)
		if got.Name(id) != want.Name(id) || got.WCET[i] != want.WCET[i] || got.Core[i] != want.Core[i] ||
			got.MinRelease[i] != want.MinRelease[i] || got.Local[i] != want.Local[i] ||
			!slices.Equal(got.DemandRow(id), want.DemandRow(id)) {
			t.Fatalf("task %d differs on %q: %s vs %s", i, data, task(got, i), task(want, i))
		}
	}
	if fmt.Sprint(got.Edges()) != fmt.Sprint(want.Edges()) {
		t.Fatalf("edges differ on %q: %v vs %v", data, got.Edges(), want.Edges())
	}
	for k := 0; k < want.Cores; k++ {
		if fmt.Sprint(got.Order(CoreID(k))) != fmt.Sprint(want.Order(CoreID(k))) || got.BankTable[k] != want.BankTable[k] {
			t.Fatalf("core %d differs on %q: order %v bank %d vs order %v bank %d", k, data,
				got.Order(CoreID(k)), got.BankTable[k], want.Order(CoreID(k)), want.BankTable[k])
		}
	}
}

// writtenNames are the 15 member names WriteJSON writes: the graph's,
// a task's and an edge's.
var writtenNames = map[string]bool{
	"cores": true, "banks": true, "tasks": true, "edges": true, "order": true, "bankPolicy": true,
	"id": true, "name": true, "wcet": true, "core": true, "minRelease": true, "local": true,
	"from": true, "to": true, "words": true,
}

// spelledExactly reports whether every member name in data is one of
// writtenNames and none repeats in its object. It walks data with
// json.Decoder.Token, which decodes escapes in names first. A document that
// is not JSON at all counts as spelled exactly, so every decoder must
// refuse it.
func spelledExactly(data []byte) bool {
	// One frame per open object or array: the names the object has given
	// (nil for an array) and whether its next token is a name.
	type frame struct {
		names  map[string]bool
		atName bool
	}
	var stack []frame
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return true // the end of the input, or not JSON
		}
		if tok == json.Delim('}') || tok == json.Delim(']') {
			stack = stack[:len(stack)-1]
			continue
		}
		if top := len(stack) - 1; top >= 0 && stack[top].names != nil {
			f := &stack[top]
			if f.atName {
				name, _ := tok.(string)
				if !writtenNames[name] || f.names[name] {
					return false
				}
				f.names[name], f.atName = true, false
				continue
			}
			f.atName = true // tok starts the member's value
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{names: map[string]bool{}, atName: true})
		case json.Delim('['):
			stack = append(stack, frame{})
		}
	}
}

// TestDecodeJSONMatchesReference runs the differential check over the
// seeds and over documents the repository's own writer produces, so it
// holds under a plain `go test` too.
func TestDecodeJSONMatchesReference(t *testing.T) {
	for _, s := range append(append([]string(nil), readJSONSeeds...), decodeJSONQuirkSeeds...) {
		checkAgainstReference(t, []byte(s))
	}
	for _, policy := range []func(CoreID) BankID{nil, SharedBank, BankPerCore} {
		var buf bytes.Buffer
		if err := twoCoreGraph(t, 2, policy).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, buf.Bytes())
	}
}

// TestDecodeJSONTrailingData pins a deliberate departure from
// encoding/json: json.Decoder.Decode stops after the first value and
// ignores what follows, the scanner rejects anything but whitespace there.
func TestDecodeJSONTrailingData(t *testing.T) {
	const doc = `{"cores":1,"banks":1,"tasks":[],"edges":[]}`
	var in graphJSON
	if err := json.NewDecoder(strings.NewReader(doc + " trailing-garbage")).Decode(&in); err != nil {
		t.Fatalf("encoding/json no longer ignores trailing data (%v); the documented divergence is gone", err)
	}
	for _, tail := range []string{" trailing-garbage", "{}", "}", ",", " x"} {
		if _, err := DecodeJSON([]byte(doc + tail)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("DecodeJSON(doc + %q) = %v, want a trailing-data error", tail, err)
		}
		if _, err := ReadJSON(strings.NewReader(doc + tail)); err == nil {
			t.Errorf("ReadJSON(doc + %q) accepted trailing data", tail)
		}
		if _, err := referenceReadJSON([]byte(doc + tail)); err == nil {
			t.Errorf("reference accepted doc + %q", tail)
		}
	}
	if _, err := DecodeJSON([]byte(doc + " \n\t\r")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// TestDecodeJSONExactMembers pins the second deliberate departure from
// encoding/json: it matches a member name to a field case-insensitively
// and lets a repeated member's value win, where the scanner refuses a name
// not spelled as WriteJSON spells it as an unknown field and a name given
// twice in one object as a duplicate field.
func TestDecodeJSONExactMembers(t *testing.T) {
	cases := []struct{ doc, want string }{
		{`{"CORES":1,"banks":1,"tasks":[],"edges":[]}`, `unknown field "CORES"`},
		{`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1,"Core":0}],"edges":[]}`, `unknown field "Core"`},
		{`{"cores":1,"banks":1,"tasks":[],"tasks":[],"edges":[]}`, `duplicate field "tasks"`},
		{`{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1,"core":0},{"id":1,"wcet":1,"core":0}],` +
			`"edges":[{"from":0,"to":1,"words":1,"words":2}]}`, `duplicate field "words"`},
		// The repeat is escaped and its value holds an escaped name, so
		// the error names the key, not the last string scanned.
		{`{"cores":1,"banks":1,"tasks":[],"t\u0061sks":[{"id":0,"wcet":1,"core":0,"name":"\u00e9"}]}`, `duplicate field "tasks"`},
	}
	for _, tc := range cases {
		if _, err := referenceReadJSON([]byte(tc.doc)); err != nil {
			t.Errorf("encoding/json no longer accepts %s (%v); the documented divergence is gone", tc.doc, err)
		}
		if _, err := DecodeJSON([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("DecodeJSON(%s) = %v, want an error naming %s", tc.doc, err, tc.want)
		}
		if _, err := ReadJSON(strings.NewReader(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadJSON(%s) = %v, want an error naming %s", tc.doc, err, tc.want)
		}
	}
}

// TestDecodeJSONShapeLimits: platform shapes past the shared limits are
// rejected before anything is allocated from them.
func TestDecodeJSONShapeLimits(t *testing.T) {
	cases := []struct{ name, doc, want string }{
		{"huge cores", `{"cores": 1000000000000, "banks": 1, "tasks": [], "edges": []}`, "cores"},
		{"huge banks", `{"cores": 1, "banks": 1000000000000, "tasks": [{"id": 0, "wcet": 1, "core": 0}], "edges": []}`, "banks"},
		{"demand cells", fmt.Sprintf(`{"cores":1,"banks":%d,"tasks":[%s]}`, MaxBanks, strings.TrimSuffix(strings.Repeat(`{"core":0},`, MaxDemandCells/MaxBanks+1), ",")), "demand limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeJSON([]byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeJSON = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestDecodeJSONDefaultOrder: omitted orders are Builder's smallest-ID-first
// topological order, whole or per core.
func TestDecodeJSONDefaultOrder(t *testing.T) {
	b := NewBuilder(2, 2)
	for i := 0; i < 6; i++ {
		b.AddTask(TaskSpec{WCET: 1, Core: CoreID(i % 2)})
	}
	b.AddEdge(4, 0, 1)
	b.AddEdge(5, 2, 1)
	b.AddEdge(3, 1, 2)
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	orders := doc["order"].([]any)
	for _, keep := range []int{0, 1} {
		doc["order"] = orders[:keep]
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := DecodeJSON(data)
		if err != nil {
			t.Fatalf("%d explicit orders: %v", keep, err)
		}
		if got, want := raw.Fingerprint(), g.Fingerprint(); got != want {
			t.Errorf("%d explicit orders: fingerprint %s, want the Builder graph's %s", keep, got, want)
		}
	}
}
