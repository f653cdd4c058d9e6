package model

import (
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
// The accepted language is the documented format as WriteJSON spells it.
// A member name must match one of the format's names exactly (JSON escapes
// in it decode first) and may appear at most once in its object: a folded
// name such as "CORES" is an unknown field, a repeated one a duplicate
// field. null leaves a field unset, and numbers must be integers that fit
// int64. Platform shape is bounded by MaxCores, MaxBanks, MaxTasks and
// MaxDemandCells before anything is sized by it. Anything but whitespace
// after the graph object is an error.
func DecodeJSON(data []byte) (*RawGraph, error) {
	d := jsonDecoder{data: data}
	return d.decode()
}

// jsonDecoder is the scanner behind DecodeJSON and ReadJSON. Each task,
// edge and order is appended to the arrays below as it is scanned.
// FuzzDecodeJSON (jsondecode_test.go) holds the scanner to the
// encoding/json decoder it replaced: on every document whose member names
// are spelled exactly and given once, the same accepted set and the same
// graphs.
type jsonDecoder struct {
	data []byte
	pos  int

	wantNames bool   // collect task names (ReadJSON); DecodeJSON skips them
	scratch   []byte // unquoted form of the latest escaped string value

	cores, banks int
	policy       string

	// Task fields by position in the "tasks" array.
	id         []TaskID
	wcet       []Cycles
	minRelease []Cycles
	core       []CoreID
	local      []Accesses
	names      []string // by position while scanning, by task ID after build

	edges  []Edge
	orders [][]TaskID
}

// fieldSet holds the members an object has given so far, one bit per name.
type fieldSet uint8

// add records member f, named key, and refuses a name the object gave
// before. The object decoders call it once the member's value is scanned,
// which member keeps the key valid for.
func (s *fieldSet) add(f fieldSet, key []byte) error {
	if *s&f != 0 {
		return fmt.Errorf("model: parsing graph JSON: duplicate field %q", key)
	}
	*s |= f
	return nil
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
	var seen fieldSet
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		var f fieldSet
		switch string(key) {
		case "cores":
			f, err = 1<<0, setInt(d, &d.cores)
		case "banks":
			f, err = 1<<1, setInt(d, &d.banks)
		case "tasks":
			f, err = 1<<2, d.taskList()
		case "edges":
			f, err = 1<<3, d.edgeList()
		case "order":
			f, err = 1<<4, d.orderList()
		case "bankPolicy":
			var s []byte
			var set bool
			if s, set, err = d.str(); set {
				d.policy = string(s)
			}
			f = 1 << 5
		default:
			return d.unknown(key)
		}
		if err != nil {
			return err
		}
		if err := seen.add(f, key); err != nil {
			return err
		}
	}
}

func (d *jsonDecoder) taskList() error {
	if d.null() {
		return nil
	}
	if err := d.open('['); err != nil {
		return err
	}
	for first := true; ; first = false {
		ok, err := d.elem(first)
		if err != nil || !ok {
			return err
		}
		i := len(d.wcet)
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
		if err := d.task(i); err != nil {
			return err
		}
	}
}

func (d *jsonDecoder) task(i int) error {
	if d.null() {
		return nil
	}
	if err := d.open('{'); err != nil {
		return err
	}
	var seen fieldSet
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		var f fieldSet
		switch string(key) {
		case "id":
			f, err = 1<<0, setInt(d, &d.id[i])
		case "name":
			var s []byte
			var set bool
			if s, set, err = d.str(); set && d.wantNames {
				d.names[i] = string(s)
			}
			f = 1 << 1
		case "wcet":
			f, err = 1<<2, setInt(d, &d.wcet[i])
		case "core":
			f, err = 1<<3, setInt(d, &d.core[i])
		case "minRelease":
			f, err = 1<<4, setInt(d, &d.minRelease[i])
		case "local":
			f, err = 1<<5, setInt(d, &d.local[i])
		default:
			return d.unknown(key)
		}
		if err != nil {
			return err
		}
		if err := seen.add(f, key); err != nil {
			return err
		}
	}
}

func (d *jsonDecoder) edgeList() error {
	if d.null() {
		return nil
	}
	if err := d.open('['); err != nil {
		return err
	}
	start := d.pos
	for first := true; ; first = false {
		ok, err := d.elem(first)
		if err != nil || !ok {
			return err
		}
		if len(d.edges) == 1 {
			// Edges are most of a graph document and alike in size,
			// so the first one's span sizes the array for the rest.
			span := max(d.pos-start, edgeBytesMin)
			d.edges = slices.Grow(d.edges, (len(d.data)-d.pos)/span+1)
		}
		d.edges = append(d.edges, Edge{})
		if err := d.edge(&d.edges[len(d.edges)-1]); err != nil {
			return err
		}
	}
}

func (d *jsonDecoder) edge(e *Edge) error {
	if d.null() {
		return nil
	}
	if err := d.open('{'); err != nil {
		return err
	}
	var seen fieldSet
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		var f fieldSet
		switch string(key) {
		case "from":
			f, err = 1<<0, setInt(d, &e.From)
		case "to":
			f, err = 1<<1, setInt(d, &e.To)
		case "words":
			f, err = 1<<2, setInt(d, &e.Words)
		default:
			return d.unknown(key)
		}
		if err != nil {
			return err
		}
		if err := seen.add(f, key); err != nil {
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
		return nil
	}
	if err := d.open('['); err != nil {
		return err
	}
	for first := true; ; first = false {
		ok, err := d.elem(first)
		if err != nil || !ok {
			return err
		}
		if len(d.orders) == MaxCores {
			return d.syntax(fmt.Sprintf("more than %d order lists", MaxCores))
		}
		order, err := d.order()
		if err != nil {
			return err
		}
		d.orders = append(d.orders, order)
	}
}

// order decodes one core's order; null is an empty order.
func (d *jsonDecoder) order() ([]TaskID, error) {
	if d.null() {
		return nil, nil
	}
	if err := d.open('['); err != nil {
		return nil, err
	}
	var order []TaskID
	for first := true; ; first = false {
		ok, err := d.elem(first)
		if err != nil || !ok {
			return order, err
		}
		if len(order) == MaxTasks {
			return nil, d.syntax(fmt.Sprintf("order longer than %d tasks", MaxTasks))
		}
		order = append(order, 0)
		if err := setInt(d, &order[len(order)-1]); err != nil {
			return nil, err
		}
	}
}

// build checks the platform shape, places tasks by ID, compiles demands
// and orders with Builder's compiler and defaults, and validates the
// result.
func (d *jsonDecoder) build() (*RawGraph, error) {
	n, cores, banks := len(d.wcet), d.cores, d.banks
	switch {
	case cores < 1 || cores > MaxCores:
		return nil, fmt.Errorf("model: graph has %d cores, want 1..%d", cores, MaxCores)
	case banks < 1 || banks > MaxBanks:
		return nil, fmt.Errorf("model: graph has %d banks, want 1..%d", banks, MaxBanks)
	case n*banks > MaxDemandCells:
		return nil, fmt.Errorf("model: %d tasks × %d banks exceeds the %d-cell demand limit", n, banks, MaxDemandCells)
	case len(d.orders) > cores:
		return nil, fmt.Errorf("model: %d order lists for %d cores", len(d.orders), cores)
	}
	var policy func(CoreID) BankID
	switch d.policy {
	case "", "default":
		policy = defaultPolicy(cores, banks)
	case "shared":
		policy = SharedBank
	case "perCore", "striped":
		policy = BankPerCore // both fold to core k → bank k mod banks
	default:
		return nil, fmt.Errorf("model: unknown bank policy %q (want shared, perCore or striped)", d.policy)
	}
	r := &RawGraph{Cores: cores, Banks: banks, Edges: slices.Clip(d.edges)}
	if err := d.placeTasks(r); err != nil {
		return nil, err
	}
	if err := r.compileDemands(policy); err != nil {
		return nil, err
	}
	if err := r.fillOrders(func(k CoreID) ([]TaskID, bool) {
		if int(k) < len(d.orders) {
			return d.orders[k], true
		}
		return nil, false
	}); err != nil {
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
	n := len(d.wcet)
	inOrder := true
	for i, id := range d.id {
		if id != TaskID(i) {
			inOrder = false
			break
		}
	}
	if inOrder {
		r.WCET, r.MinRelease = slices.Clip(d.wcet), slices.Clip(d.minRelease)
		r.Core, r.Local = slices.Clip(d.core), slices.Clip(d.local)
		d.names = slices.Clip(d.names)
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
	for i, id := range d.id {
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
// once the closing '}' is consumed. The key aliases the input or, when
// escaped, a copy of its own, so it stays valid while the value is scanned.
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
	var plain bool
	if key, plain, err = d.quoted(); err != nil {
		return nil, false, err
	}
	if !plain {
		key = slices.Clone(key)
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
	s, _, err = d.quoted()
	return s, err == nil, err
}

// quoted scans a string literal and returns its decoded bytes: a slice of
// the input when the literal holds only plain ASCII (plain is true),
// otherwise the scratch buffer holding it unquoted as encoding/json
// unquotes (invalid UTF-8 and unpaired surrogates become U+FFFD).
func (d *jsonDecoder) quoted() (s []byte, plain bool, err error) {
	data := d.data
	if d.pos >= len(data) || data[d.pos] != '"' {
		return nil, false, d.syntax("expected a string")
	}
	start := d.pos + 1
	i := start
	for i < len(data) && plainByte[data[i]] {
		i++
	}
	if i < len(data) && data[i] == '"' {
		d.pos = i + 1
		return data[start:i], true, nil
	}
	// The literal holds an escape or a non-ASCII byte: scan to its closing
	// quote and unquote it.
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			d.scratch = unquote(d.scratch[:0], data[start:i])
			return d.scratch, false, nil
		case c == '\\':
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
					return nil, false, d.syntax(`invalid \u escape`)
				}
				i += 6
			default:
				d.pos = i
				return nil, false, d.syntax("invalid escape")
			}
		case c < ' ':
			d.pos = i
			return nil, false, d.syntax("control character in string")
		default:
			i++
		}
	}
	d.pos = len(data)
	return nil, false, d.syntax("")
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
