package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeJSON parses one graph document in the format WriteJSON emits
// straight into the flat RawGraph form, in a single pass over data: task
// fields land in the dense per-task arrays, edges in the edge list, orders
// in the CSR, and demands are compiled under the document's bank policy.
// No per-task objects and no Graph are built. Omitted per-core orders are
// filled with the smallest-ID-first topological order Builder uses. The
// result has passed RawGraph.Validate, so it is exactly as vetted as a
// graph built by Builder.
//
// The accepted language is that of encoding/json decoding into the
// structs WriteJSON encodes from, with unknown fields disallowed: object
// keys match field names case-insensitively (as bytes.EqualFold does), a
// repeated key's last value wins, null leaves a field unset, and numbers
// must be integers that fit int64. Platform shape is bounded by MaxCores,
// MaxBanks, MaxTasks and MaxDemandCells before anything is sized by it.
// Anything but whitespace after the graph object is an error.
func DecodeJSON(data []byte) (*RawGraph, error) {
	d := jsonDecoder{data: data}
	return d.decode()
}

// jsonDecoder is the scanner behind DecodeJSON and ReadJSON.
//
// Arrays decode into retained storage the way encoding/json reuses a
// slice's backing array, so repeated keys behave identically: a repeated
// "tasks", "edges" or "order" key overwrites earlier elements position by
// position, a field (or null element) the later value omits keeps the
// earlier value, and an empty array or null drops the storage.
// FuzzDecodeJSON (jsondecode_test.go) holds the scanner to the
// encoding/json decoder it replaced: same accepted set, same graphs.
type jsonDecoder struct {
	data []byte
	pos  int

	wantNames bool   // collect task names (ReadJSON); DecodeJSON skips them
	scratch   []byte // unquoted form of the latest escaped string

	cores, banks int
	policy       string

	// Task fields by position in the "tasks" array. Positions past ntasks
	// hold elements an earlier, longer "tasks" value left behind.
	ntasks     int
	id         []TaskID
	wcet       []Cycles
	minRelease []Cycles
	core       []CoreID
	local      []Accesses
	names      []string // by position while scanning, by task ID after build

	nedges int
	edges  []Edge

	norders int
	orders  [][]TaskID
}

// Field indices of the three object kinds, in the order of the field
// tables below.
const (
	graphCores = iota
	graphBanks
	graphTasks
	graphEdges
	graphOrder
	graphBankPolicy
)

const (
	taskID = iota
	taskName
	taskWCET
	taskCore
	taskMinRelease
	taskLocal
)

const (
	edgeFrom = iota
	edgeTo
	edgeWords
)

var (
	graphFields = [][]byte{[]byte("cores"), []byte("banks"), []byte("tasks"), []byte("edges"), []byte("order"), []byte("bankPolicy")}
	taskFields  = [][]byte{[]byte("id"), []byte("name"), []byte("wcet"), []byte("core"), []byte("minRelease"), []byte("local")}
	edgeFields  = [][]byte{[]byte("from"), []byte("to"), []byte("words")}
)

// foldField returns the index of the field key names under case folding,
// or -1. The object decoders try exact spellings first; this is the
// fallback for keys such as "CORES".
func foldField(key []byte, fields [][]byte) int {
	for i, f := range fields {
		if bytes.EqualFold(key, f) {
			return i
		}
	}
	return -1
}

func (d *jsonDecoder) decode() (*RawGraph, error) {
	if err := d.graph(); err != nil {
		return nil, err
	}
	d.ws()
	if d.pos != len(d.data) {
		return nil, d.syntax("trailing data after the graph object")
	}
	return d.build()
}

func (d *jsonDecoder) graph() error {
	if err := d.open('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		var f int
		switch string(key) {
		case "cores":
			f = graphCores
		case "banks":
			f = graphBanks
		case "tasks":
			f = graphTasks
		case "edges":
			f = graphEdges
		case "order":
			f = graphOrder
		case "bankPolicy":
			f = graphBankPolicy
		default:
			f = foldField(key, graphFields)
		}
		switch f {
		case graphCores:
			err = setInt(d, &d.cores)
		case graphBanks:
			err = setInt(d, &d.banks)
		case graphTasks:
			err = d.taskList()
		case graphEdges:
			err = d.edgeList()
		case graphOrder:
			err = d.orderList()
		case graphBankPolicy:
			var s []byte
			var set bool
			if s, set, err = d.str(); set {
				d.policy = string(s)
			}
		default:
			err = d.unknown(key)
		}
		if err != nil {
			return err
		}
	}
}

func (d *jsonDecoder) taskList() error {
	if d.null() {
		d.ntasks = 0
		d.dropTasks()
		return nil
	}
	if err := d.open('['); err != nil {
		return err
	}
	i := 0
	for first := true; ; first = false {
		ok, err := d.elem(first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if i == len(d.wcet) {
			if i == MaxTasks {
				return d.syntax(fmt.Sprintf("more than %d tasks", MaxTasks))
			}
			d.id = append(d.id, 0)
			d.wcet = append(d.wcet, 0)
			d.minRelease = append(d.minRelease, 0)
			d.core = append(d.core, 0)
			d.local = append(d.local, 0)
			if d.wantNames {
				d.names = append(d.names, "")
			}
		}
		if err := d.task(i); err != nil {
			return err
		}
		i++
	}
	d.ntasks = i
	if i == 0 {
		d.dropTasks()
	}
	return nil
}

// dropTasks discards the task storage, as encoding/json replaces a slice
// decoded from null or [] with a fresh empty one.
func (d *jsonDecoder) dropTasks() {
	d.id, d.wcet, d.minRelease = d.id[:0], d.wcet[:0], d.minRelease[:0]
	d.core, d.local, d.names = d.core[:0], d.local[:0], d.names[:0]
}

func (d *jsonDecoder) task(i int) error {
	if d.null() {
		return nil
	}
	if err := d.open('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		var f int
		switch string(key) {
		case "id":
			f = taskID
		case "name":
			f = taskName
		case "wcet":
			f = taskWCET
		case "core":
			f = taskCore
		case "minRelease":
			f = taskMinRelease
		case "local":
			f = taskLocal
		default:
			f = foldField(key, taskFields)
		}
		switch f {
		case taskID:
			err = setInt(d, &d.id[i])
		case taskName:
			var s []byte
			var set bool
			if s, set, err = d.str(); set && d.wantNames {
				d.names[i] = string(s)
			}
		case taskWCET:
			err = setInt(d, &d.wcet[i])
		case taskCore:
			err = setInt(d, &d.core[i])
		case taskMinRelease:
			err = setInt(d, &d.minRelease[i])
		case taskLocal:
			err = setInt(d, &d.local[i])
		default:
			err = d.unknown(key)
		}
		if err != nil {
			return err
		}
	}
}

func (d *jsonDecoder) edgeList() error {
	if d.null() {
		d.nedges, d.edges = 0, d.edges[:0]
		return nil
	}
	if err := d.open('['); err != nil {
		return err
	}
	i, start := 0, d.pos
	for first := true; ; first = false {
		ok, err := d.elem(first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if i == len(d.edges) {
			if i == 1 {
				// Edges are most of a graph document and alike in size,
				// so the first one's span sizes the array for the rest.
				span := max(d.pos-start, edgeBytesMin)
				d.edges = slices.Grow(d.edges, (len(d.data)-d.pos)/span+1)
			}
			d.edges = append(d.edges, Edge{})
		}
		if err := d.edge(&d.edges[i]); err != nil {
			return err
		}
		i++
	}
	d.nedges = i
	if i == 0 {
		d.edges = d.edges[:0]
	}
	return nil
}

func (d *jsonDecoder) edge(e *Edge) error {
	if d.null() {
		return nil
	}
	if err := d.open('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		var f int
		switch string(key) {
		case "from":
			f = edgeFrom
		case "to":
			f = edgeTo
		case "words":
			f = edgeWords
		default:
			f = foldField(key, edgeFields)
		}
		switch f {
		case edgeFrom:
			err = setInt(d, &e.From)
		case edgeTo:
			err = setInt(d, &e.To)
		case edgeWords:
			err = setInt(d, &e.Words)
		default:
			err = d.unknown(key)
		}
		if err != nil {
			return err
		}
	}
}

// edgeBytesMin floors the per-edge span in edgeList's capacity estimate.
// A compact edge with all three fields, `{"from":0,"to":1,"words":0},`,
// spans 28 bytes; at 24, the in-memory size of an Edge, the reserved array
// never outgrows the input it is estimated from.
const edgeBytesMin = 24

// orderList decodes "order": a list of per-core orders, each a list of task
// IDs. A null entry is an empty order for its core.
func (d *jsonDecoder) orderList() error {
	if d.null() {
		d.norders, d.orders = 0, d.orders[:0]
		return nil
	}
	if err := d.open('['); err != nil {
		return err
	}
	k := 0
	for first := true; ; first = false {
		ok, err := d.elem(first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if k == len(d.orders) {
			if k == MaxCores {
				return d.syntax(fmt.Sprintf("more than %d order lists", MaxCores))
			}
			d.orders = append(d.orders, nil)
		}
		if err := d.order(&d.orders[k]); err != nil {
			return err
		}
		k++
	}
	d.norders = k
	if k == 0 {
		d.orders = d.orders[:0]
	}
	return nil
}

// order decodes one core's order into *dst, reusing its backing array up
// to capacity the way encoding/json does.
func (d *jsonDecoder) order(dst *[]TaskID) error {
	if d.null() {
		*dst = nil
		return nil
	}
	if err := d.open('['); err != nil {
		return err
	}
	buf := (*dst)[:cap(*dst)]
	j := 0
	for first := true; ; first = false {
		ok, err := d.elem(first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if j == len(buf) {
			if j == MaxTasks {
				return d.syntax(fmt.Sprintf("order longer than %d tasks", MaxTasks))
			}
			buf = append(buf, 0)
		}
		if err := setInt(d, &buf[j]); err != nil {
			return err
		}
		j++
	}
	if j == 0 {
		*dst = buf[:0:0] // encoding/json replaces an empty array with a fresh slice
	} else {
		*dst = buf[:j]
	}
	return nil
}

// build checks the platform shape, places tasks by ID, compiles demands and
// orders, and validates the result.
func (d *jsonDecoder) build() (*RawGraph, error) {
	n, cores, banks := d.ntasks, d.cores, d.banks
	switch {
	case cores < 1 || cores > MaxCores:
		return nil, fmt.Errorf("model: graph has %d cores, want 1..%d", cores, MaxCores)
	case banks < 1 || banks > MaxBanks:
		return nil, fmt.Errorf("model: graph has %d banks, want 1..%d", banks, MaxBanks)
	case n*banks > MaxDemandCells:
		return nil, fmt.Errorf("model: %d tasks × %d banks exceeds the %d-cell demand limit", n, banks, MaxDemandCells)
	case d.norders > cores:
		return nil, fmt.Errorf("model: %d order lists for %d cores", d.norders, cores)
	}
	shared := false
	switch d.policy {
	case "", "default":
		shared = banks < cores
	case "shared":
		shared = true
	case "perCore", "striped":
		// Both fold to core k → bank k mod banks.
	default:
		return nil, fmt.Errorf("model: unknown bank policy %q (want shared, perCore or striped)", d.policy)
	}
	r := &RawGraph{Cores: cores, Banks: banks, Edges: d.edges[:d.nedges:d.nedges]}
	if err := d.placeTasks(r); err != nil {
		return nil, err
	}
	r.BankTable = make([]BankID, cores)
	if !shared {
		for k := range r.BankTable {
			r.BankTable[k] = BankID(k % banks)
		}
	}
	if err := r.compileDemand(); err != nil {
		return nil, err
	}
	if err := d.compileOrders(r); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// placeTasks moves the task fields from array position to task ID. Tasks
// may appear in any order, but their IDs must form the dense range
// 0..n-1; in the common case they already appear in ID order and the
// scanned arrays are adopted as they are.
func (d *jsonDecoder) placeTasks(r *RawGraph) error {
	n := d.ntasks
	ids := d.id[:n]
	inOrder := true
	for i, id := range ids {
		if id != TaskID(i) {
			inOrder = false
			break
		}
	}
	if inOrder {
		r.WCET, r.MinRelease = d.wcet[:n:n], d.minRelease[:n:n]
		r.Core, r.Local = d.core[:n:n], d.local[:n:n]
		if d.wantNames {
			d.names = d.names[:n:n]
		}
		return nil
	}
	r.WCET = make([]Cycles, n)
	r.MinRelease = make([]Cycles, n)
	r.Core = make([]CoreID, n)
	r.Local = make([]Accesses, n)
	var names []string
	if d.wantNames {
		names = make([]string, n)
	}
	seen := make([]bool, n)
	for i, id := range ids {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("model: task ID %d outside dense range 0..%d", id, n-1)
		}
		if seen[id] {
			return fmt.Errorf("model: duplicate task ID %d", id)
		}
		seen[id] = true
		r.WCET[id], r.MinRelease[id] = d.wcet[i], d.minRelease[i]
		r.Core[id], r.Local[id] = d.core[i], d.local[i]
		if names != nil {
			names[id] = d.names[i]
		}
	}
	d.names = names
	return nil
}

// compileDemand fills the demand matrix from the local access counts and
// edge volumes under BankTable: Graph.CompileDemands on the flat form,
// accumulating in the same order. Cores and edge endpoints are
// range-checked first, since the compilation indexes by them; every other
// value is left to Validate.
func (r *RawGraph) compileDemand() error {
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

// compileOrders builds the order CSR: the document's order for the cores
// it lists, the default topological order for the rest.
func (d *jsonDecoder) compileOrders(r *RawGraph) error {
	n, cores := r.NumTasks(), r.Cores
	var byCore []TaskID
	var start []int32
	if d.norders < cores {
		topo, err := topoOrder(n, r.Edges)
		if err != nil {
			return err
		}
		// Bucket the topological order by core, stably: each core's
		// default order is its tasks' subsequence of topo.
		start = make([]int32, cores+1)
		for _, c := range r.Core {
			start[c+1]++
		}
		for k := 0; k < cores; k++ {
			start[k+1] += start[k]
		}
		fill := append([]int32(nil), start[:cores]...)
		byCore = make([]TaskID, n)
		for _, id := range topo {
			c := r.Core[id]
			byCore[fill[c]] = id
			fill[c]++
		}
	}
	r.OrderStart = make([]int32, cores+1)
	r.OrderIDs = make([]TaskID, 0, n)
	for k := 0; k < cores; k++ {
		var order []TaskID
		if k < d.norders {
			order = d.orders[k]
		} else {
			order = byCore[start[k]:start[k+1]]
		}
		if len(r.OrderIDs)+len(order) > n {
			return fmt.Errorf("model: execution orders list more than the %d tasks", n)
		}
		r.OrderIDs = append(r.OrderIDs, order...)
		r.OrderStart[k+1] = int32(len(r.OrderIDs))
	}
	if len(r.OrderIDs) != n {
		return fmt.Errorf("model: execution orders cover %d of %d tasks", len(r.OrderIDs), n)
	}
	return nil
}

// topoOrder returns the smallest-ID-first topological order of n tasks
// under edges — TopoSort's order, computed on the flat form.
func topoOrder(n int, edges []Edge) ([]TaskID, error) {
	start, succ, indeg := successorLists(n, edges)
	ready := make(taskIDHeap, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(TaskID(i))
		}
	}
	order := make([]TaskID, 0, n)
	for len(ready) > 0 {
		id := ready.pop()
		order = append(order, id)
		for _, s := range succ[start[id]:start[id+1]] {
			if indeg[s]--; indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("model: dependency graph has a cycle (%d of %d tasks unreachable from sources)", n-len(order), n)
	}
	return order, nil
}

// --- scanner primitives ---

// ws skips JSON whitespace.
func (d *jsonDecoder) ws() {
	if d.pos < len(d.data) && d.data[d.pos] > ' ' {
		return
	}
	d.skipWS()
}

func (d *jsonDecoder) skipWS() {
	data, i := d.data, d.pos
	for i < len(data) {
		if c := data[i]; c > ' ' || (c != ' ' && c != '\n' && c != '\r' && c != '\t') {
			break
		}
		i++
		// Indentation runs are spaces: skip them eight bytes at a time,
		// stopping at the first byte of the word that is not a space.
		for i+8 <= len(data) {
			x := binary.LittleEndian.Uint64(data[i:]) ^ 0x2020202020202020
			if x != 0 {
				i += bits.TrailingZeros64(x) / 8
				break
			}
			i += 8
		}
	}
	d.pos = i
}

// syntax reports a malformed or mistyped document at the current offset.
func (d *jsonDecoder) syntax(msg string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("model: parsing graph JSON: unexpected end of input")
	}
	return fmt.Errorf("model: parsing graph JSON: %s at offset %d", msg, d.pos)
}

func (d *jsonDecoder) unknown(key []byte) error {
	return fmt.Errorf("model: parsing graph JSON: unknown field %q", key)
}

// open consumes the opening delimiter of an object or array.
func (d *jsonDecoder) open(c byte) error {
	d.ws()
	if d.pos >= len(d.data) || d.data[d.pos] != c {
		if c == '{' {
			return d.syntax("expected an object")
		}
		return d.syntax("expected an array")
	}
	d.pos++
	return nil
}

// null consumes a null literal if one is next.
func (d *jsonDecoder) null() bool {
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == 'n' && len(d.data)-d.pos >= 4 && string(d.data[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// member advances to the next member of an object whose '{' is consumed,
// and returns its key with the scanner at the member's value; ok is false
// once the closing '}' is consumed. The key aliases the input or the
// scratch buffer, so it is valid until the next string is scanned.
func (d *jsonDecoder) member(first bool) (key []byte, ok bool, err error) {
	d.ws()
	if d.pos >= len(d.data) {
		return nil, false, d.syntax("")
	}
	c := d.data[d.pos]
	if c == '}' {
		d.pos++
		return nil, false, nil
	}
	if !first {
		if c != ',' {
			return nil, false, d.syntax("expected , or }")
		}
		d.pos++
		d.ws()
	}
	if key, err = d.quoted(); err != nil {
		return nil, false, err
	}
	d.ws()
	if d.pos >= len(d.data) || d.data[d.pos] != ':' {
		return nil, false, d.syntax("expected :")
	}
	d.pos++
	return key, true, nil
}

// elem advances to the next element of an array whose '[' is consumed; ok
// is false once the closing ']' is consumed.
func (d *jsonDecoder) elem(first bool) (bool, error) {
	d.ws()
	if d.pos >= len(d.data) {
		return false, d.syntax("")
	}
	c := d.data[d.pos]
	if c == ']' {
		d.pos++
		return false, nil
	}
	if !first {
		if c != ',' {
			return false, d.syntax("expected , or ]")
		}
		d.pos++
	}
	return true, nil
}

// setInt decodes an integer or null into *dst; null leaves *dst unchanged.
func setInt[T ~int | ~int64](d *jsonDecoder, dst *T) error {
	v, set, err := d.integer()
	if err != nil || !set {
		return err
	}
	if int64(T(v)) != v {
		return d.syntax("number out of range")
	}
	*dst = T(v)
	return nil
}

// integer scans a JSON number that must be an integer fitting int64, or
// null (set is false). A fraction or exponent is an error even when the
// value is integral.
func (d *jsonDecoder) integer() (v int64, set bool, err error) {
	if d.null() {
		return 0, false, nil
	}
	data, i := d.data, d.pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	if i >= len(data) || data[i] < '0' || data[i] > '9' {
		d.pos = i
		return 0, false, d.syntax("expected an integer")
	}
	var u uint64
	if data[i] == '0' {
		i++
	} else {
		digits := i
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			u = u*10 + uint64(data[i]-'0')
			i++
		}
		if i-digits > 19 { // 19 digits always fit in a uint64
			d.pos = digits
			return 0, false, d.syntax("integer overflows int64")
		}
	}
	if i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		d.pos = i
		return 0, false, d.syntax("number is not an integer")
	}
	switch {
	case !neg && u > 1<<63-1, neg && u > 1<<63:
		return 0, false, d.syntax("integer overflows int64")
	}
	d.pos = i
	if neg {
		return -int64(u), true, nil
	}
	return int64(u), true, nil
}

// str scans a string or null (set is false); the bytes are valid until the
// next string is scanned.
func (d *jsonDecoder) str() (s []byte, set bool, err error) {
	if d.null() {
		return nil, false, nil
	}
	s, err = d.quoted()
	return s, err == nil, err
}

// quoted scans a string literal and returns its decoded bytes: a slice of
// the input when the literal holds only plain ASCII, otherwise the scratch
// buffer holding it unquoted as encoding/json unquotes (invalid UTF-8 and
// unpaired surrogates become U+FFFD).
func (d *jsonDecoder) quoted() ([]byte, error) {
	data := d.data
	if d.pos >= len(data) || data[d.pos] != '"' {
		return nil, d.syntax("expected a string")
	}
	start := d.pos + 1
	i := start
	for i < len(data) && plainByte[data[i]] {
		i++
	}
	if i < len(data) && data[i] == '"' {
		d.pos = i + 1
		return data[start:i], nil
	}
	plain := true
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			if plain {
				return data[start:i], nil
			}
			d.scratch = unquote(d.scratch[:0], data[start:i])
			return d.scratch, nil
		case c == '\\':
			plain = false
			if i+1 >= len(data) {
				i++
				continue
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(data) || hex4(data[i+2:i+6]) < 0 {
					d.pos = i
					return nil, d.syntax(`invalid \u escape`)
				}
				i += 6
			default:
				d.pos = i
				return nil, d.syntax("invalid escape")
			}
		case c < ' ':
			d.pos = i
			return nil, d.syntax("control character in string")
		case c >= utf8.RuneSelf:
			plain = false
			i++
		default:
			i++
		}
	}
	d.pos = len(data)
	return nil, d.syntax("")
}

// plainByte marks the bytes a string literal carries through unchanged:
// printable ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// hex4 decodes four hex digits, or returns -1.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote appends the decoded form of a syntactically valid string body s
// to dst, replacing invalid UTF-8 and unpaired surrogates with U+FFFD.
func unquote(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch s[r+1] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := hex4(s[r+2 : r+6])
				r += 6
				if utf16.IsSurrogate(rr) {
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(s[r+2:r+6])); dec != unicode.ReplacementChar {
							dst = utf8.AppendRune(dst, dec)
							r += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, s[r+1])
			}
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}
