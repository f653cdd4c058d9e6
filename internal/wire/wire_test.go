package wire

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
)

func testGraphs() map[string]*model.Graph {
	graphs := map[string]*model.Graph{
		"figure1":  gen.Figure1(),
		"figure2":  gen.Figure2(),
		"avionics": gen.Avionics(),
	}
	shapes := []struct {
		name   string
		layers int
		size   int
		cores  int
		banks  int
		shared bool
	}{
		{"ls8x4", 8, 4, 4, 4, false},
		{"ls6x8", 6, 8, 8, 8, false},
		{"nl4x12", 4, 12, 4, 1, true},
		{"nl6x10", 6, 10, 16, 16, false},
	}
	for _, s := range shapes {
		p := gen.NewParams(s.layers, s.size)
		p.Cores, p.Banks, p.SharedBank = s.cores, s.banks, s.shared
		p.Seed = int64(101 + s.layers*s.size)
		graphs[s.name] = gen.MustLayered(p)
	}
	return graphs
}

func TestLayoutConstants(t *testing.T) {
	// The documented layout: payload begins right after header + table.
	if payloadStart != 256 {
		t.Fatalf("payloadStart = %d, documented layout says 256", payloadStart)
	}
	if headerSize+sectionCount*sectionDesc != payloadStart {
		t.Fatalf("header %d + table %d×%d ≠ payload start %d",
			headerSize, sectionCount, sectionDesc, payloadStart)
	}
}

func TestRoundTrip(t *testing.T) {
	for name, g := range testGraphs() {
		blob := EncodeGraph(g)
		if n, err := Size(blob); err != nil || n != len(blob) {
			t.Fatalf("%s: Size = %d, %v; want %d, nil", name, n, err, len(blob))
		}
		r, err := Decode(blob)
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		if got, want := r.Fingerprint(), g.Fingerprint(); got != want {
			t.Errorf("%s: decoded fingerprint %s, want %s", name, got, want)
		}
		// Encode must be deterministic: same graph, same bytes.
		if !bytes.Equal(blob, Encode(r)) {
			t.Errorf("%s: re-encoding the decoded graph changed the bytes", name)
		}
	}
}

func TestDecodeDoesNotAliasInput(t *testing.T) {
	g := gen.Figure1()
	blob := EncodeGraph(g)
	r, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	fp := r.Fingerprint()
	for i := range blob {
		blob[i] = 0xff
	}
	if r.Fingerprint() != fp {
		t.Fatal("mutating the input buffer changed the decoded graph")
	}
}

// corrupt returns a copy of blob with mut applied.
func corrupt(blob []byte, mut func([]byte)) []byte {
	c := append([]byte(nil), blob...)
	mut(c)
	return c
}

func TestDecodeRejectsMalformed(t *testing.T) {
	blob := EncodeGraph(gen.Figure2())
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "header"},
		{"truncated header", blob[:headerSize-1], "header"},
		{"truncated payload", blob[:len(blob)-1], "declares"},
		{"trailing garbage", append(append([]byte(nil), blob...), 0), "declares"},
		{"bad magic", corrupt(blob, func(b []byte) { b[0] = 'X' }), "magic"},
		{"future version", corrupt(blob, func(b []byte) {
			binary.LittleEndian.PutUint16(b[4:6], Version+1)
		}), "version"},
		{"section count", corrupt(blob, func(b []byte) {
			binary.LittleEndian.PutUint16(b[6:8], sectionCount+1)
		}), "sections"},
		{"zero cores", corrupt(blob, func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:12], 0)
		}), "core count"},
		{"huge tasks", corrupt(blob, func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:24], model.MaxTasks+1)
		}), "task count"},
		{"huge edges", corrupt(blob, func(b []byte) {
			binary.LittleEndian.PutUint64(b[24:32], maxEdges+1)
		}), "edge count"},
		{"declared size mismatch", corrupt(blob, func(b []byte) {
			binary.LittleEndian.PutUint64(b[32:40], uint64(len(blob))+8)
		}), "declares"},
		{"section id out of order", corrupt(blob, func(b []byte) {
			binary.LittleEndian.PutUint32(b[headerSize:headerSize+4], secMinRelease)
		}), "canonical order"},
		{"section padding", corrupt(blob, func(b []byte) {
			binary.LittleEndian.PutUint32(b[headerSize+4:headerSize+8], 1)
		}), "padding"},
		{"section offset", corrupt(blob, func(b []byte) {
			binary.LittleEndian.PutUint64(b[headerSize+8:headerSize+16], payloadStart+1)
		}), "offset"},
		{"section length", corrupt(blob, func(b []byte) {
			binary.LittleEndian.PutUint64(b[headerSize+16:headerSize+24], 0)
		}), "bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data)
			if err == nil {
				t.Fatal("Decode accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeRejectsOverflow plants a past-MaxInput value in each magnitude
// section of an otherwise valid blob: the decoder must reject it exactly
// like stg.Read and the JSON path do (satellite contract).
func TestDecodeRejectsOverflow(t *testing.T) {
	g := gen.Figure1() // has edges, so the edge-words plant lands in a real section
	r := g.Raw()
	over := uint64(model.MaxInput + 1)

	plant := map[string]func(b []byte){
		"wcet": func(b []byte) {
			off := sectionOffset(t, b, secWCET)
			binary.LittleEndian.PutUint64(b[off:], over)
		},
		"minRelease": func(b []byte) {
			off := sectionOffset(t, b, secMinRelease)
			binary.LittleEndian.PutUint64(b[off:], over)
		},
		"local": func(b []byte) {
			off := sectionOffset(t, b, secLocal)
			binary.LittleEndian.PutUint64(b[off:], over)
		},
		"demand": func(b []byte) {
			off := sectionOffset(t, b, secDemand)
			binary.LittleEndian.PutUint64(b[off:], over)
		},
		"edge words": func(b []byte) {
			off := sectionOffset(t, b, secEdges)
			binary.LittleEndian.PutUint64(b[off+8:], over)
		},
	}
	for name, mut := range plant {
		t.Run(name, func(t *testing.T) {
			blob := corrupt(Encode(r), mut)
			_, err := Decode(blob)
			if err == nil {
				t.Fatal("Decode accepted a past-MaxInput magnitude")
			}
			if !strings.Contains(err.Error(), "MaxInput") {
				t.Fatalf("error %q does not mention MaxInput", err)
			}
		})
	}

	// The value exactly at the bound is legal, as in every other reader.
	atBound := g.Raw()
	atBound.WCET[0] = model.MaxInput
	if _, err := Decode(Encode(atBound)); err != nil {
		t.Fatalf("Decode rejected WCET exactly at MaxInput: %v", err)
	}
}

// sectionOffset reads a section's payload offset out of a blob's table.
func sectionOffset(t *testing.T, blob []byte, id int) uint64 {
	t.Helper()
	d := headerSize + (id-1)*sectionDesc
	if got := binary.LittleEndian.Uint32(blob[d : d+4]); got != uint32(id) {
		t.Fatalf("table slot %d holds section %d", id-1, got)
	}
	return binary.LittleEndian.Uint64(blob[d+8 : d+16])
}

// TestDecodeRejectsSemanticBreakage: structural bytes fine, graph invalid —
// the RawGraph.Validate layer must catch what the geometry checks cannot.
func TestDecodeRejectsSemanticBreakage(t *testing.T) {
	r := gen.Figure1().Raw()
	// Introduce a 2-cycle.
	e := r.Edges[0]
	r.Edges = append(r.Edges, model.Edge{From: e.To, To: e.From, Words: 1})
	if _, err := Decode(Encode(r)); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Decode of cyclic graph: %v, want cycle rejection", err)
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, n := range []int{256, 1024} {
		p := gen.NewParams(n/64, 64)
		p.Seed = 7
		blob := EncodeGraph(gen.MustLayered(p))
		b.Run("n="+itoa(n), func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
