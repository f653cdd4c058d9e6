package wire

import (
	"encoding/binary"
	"testing"

	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
)

// FuzzDecodeWire checks the binary decoder never panics and that every blob
// it accepts is a fully validated graph that survives an encode/decode
// round trip with an unchanged fingerprint. The seed corpus covers valid
// blobs of several shapes plus the malformed classes the table-driven tests
// pin down: truncation at every structural boundary, corrupted header
// fields, section-table geometry violations, and past-model.MaxInput
// magnitudes (which must be rejected exactly like stg.Read rejects them).
func FuzzDecodeWire(f *testing.F) {
	valid := [][]byte{
		EncodeGraph(gen.Figure1()),
		EncodeGraph(gen.Figure2()),
		EncodeGraph(gen.Avionics()),
	}
	p := gen.NewParams(4, 8)
	p.Cores, p.Banks = 4, 4
	p.Seed = 11
	valid = append(valid, EncodeGraph(gen.MustLayered(p)))
	for _, blob := range valid {
		f.Add(blob)
	}

	base := valid[1]
	mutate := func(mut func(b []byte)) []byte {
		c := append([]byte(nil), base...)
		mut(c)
		return c
	}
	// Truncations at structural boundaries.
	f.Add([]byte{})
	f.Add(base[:4])
	f.Add(base[:headerSize-1])
	f.Add(base[:headerSize])
	f.Add(base[:payloadStart])
	f.Add(base[:len(base)-1])
	f.Add(append(append([]byte(nil), base...), 0))
	// Header corruption.
	f.Add(mutate(func(b []byte) { b[0] = 'J' }))
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[4:6], 2) }))
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[6:8], 3) }))
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 0) }))
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], model.MaxTasks+1) }))
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[24:32], 1<<60) }))
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[32:40], 1<<50) }))
	// Section table corruption.
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[headerSize:], 9) }))
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[headerSize+8:], 0) }))
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[headerSize+16:], 1<<40) }))
	// Magnitude overflow: 2^40+1 (past model.MaxInput) planted in the WCET
	// section; the value exactly at the bound as the legal twin.
	f.Add(mutate(func(b []byte) {
		binary.LittleEndian.PutUint64(b[payloadStart:], uint64(model.MaxInput)+1)
	}))
	f.Add(mutate(func(b []byte) {
		binary.LittleEndian.PutUint64(b[payloadStart:], uint64(model.MaxInput))
	}))
	// Negative magnitude (sign bit set).
	f.Add(mutate(func(b []byte) {
		binary.LittleEndian.PutUint64(b[payloadStart:], ^uint64(0))
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		fp := r.Fingerprint()
		r2, err := Decode(Encode(r))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if r2.Fingerprint() != fp {
			t.Fatal("round trip changed the fingerprint")
		}
		// Everything Decode accepts must materialize into a valid Graph:
		// the two ingestion paths admit exactly the same set of graphs.
		if _, err := r.Graph(); err != nil {
			t.Fatalf("accepted graph fails materialization: %v", err)
		}
	})
}
