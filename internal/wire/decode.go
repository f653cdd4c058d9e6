package wire

import (
	"encoding/binary"
	"fmt"

	"github.com/mia-rt/mia/internal/model"
)

// Size reads only the header of a blob and returns the total encoded size
// it declares. Batch framing uses it to split a stream carrying a blob
// followed by further payload (the rest of an HTTP body) without scanning:
// the size is at a fixed offset. The header is sanity-checked (magic,
// version, size floor) but the payload is not — only Decode vets a graph.
func Size(data []byte) (int, error) {
	if len(data) < headerSize {
		return 0, fmt.Errorf("wire: %d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if string(data[0:4]) != Magic {
		return 0, fmt.Errorf("wire: bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return 0, fmt.Errorf("wire: version %d, this decoder understands only version %d", v, Version)
	}
	total := binary.LittleEndian.Uint64(data[32:40])
	if total < MinBlobSize || total > uint64(maxBlobSize()) {
		return 0, fmt.Errorf("wire: declared size %d outside [%d, %d]", total, MinBlobSize, maxBlobSize())
	}
	return int(total), nil
}

// maxBlobSize is the largest size a blob at the count limits could declare;
// anything above it is rejected before allocation.
func maxBlobSize() uint64 {
	s := sectionSizes(model.MaxTasks, maxEdges, model.MaxCores, model.MaxBanks)
	total := uint64(payloadStart)
	for id := 1; id <= sectionCount; id++ {
		total += s[id]
	}
	return total
}

// Decode parses and fully validates a version-1 blob. data must be exactly
// one blob — a declared size shorter or longer than len(data) is an error
// (use Size to frame blobs out of a larger stream). The returned RawGraph
// is freshly allocated and does not alias data; it has passed
// model.RawGraph.Validate, so it is exactly as vetted as a graph built by
// the JSON path — in particular, any magnitude past model.MaxInput is
// rejected here, matching stg.Read and model.Validate.
func Decode(data []byte) (*model.RawGraph, error) {
	total, err := Size(data)
	if err != nil {
		return nil, err
	}
	if total != len(data) {
		return nil, fmt.Errorf("wire: blob declares %d bytes, have %d", total, len(data))
	}
	if n := binary.LittleEndian.Uint16(data[6:8]); n != sectionCount {
		return nil, fmt.Errorf("wire: %d sections, version %d has exactly %d", n, Version, sectionCount)
	}
	cores := int(binary.LittleEndian.Uint32(data[8:12]))
	banks := int(binary.LittleEndian.Uint32(data[12:16]))
	tasks64 := binary.LittleEndian.Uint64(data[16:24])
	edges64 := binary.LittleEndian.Uint64(data[24:32])
	switch {
	case cores < 1 || cores > model.MaxCores:
		return nil, fmt.Errorf("wire: core count %d outside [1, %d]", cores, model.MaxCores)
	case banks < 1 || banks > model.MaxBanks:
		return nil, fmt.Errorf("wire: bank count %d outside [1, %d]", banks, model.MaxBanks)
	case tasks64 > model.MaxTasks:
		return nil, fmt.Errorf("wire: task count %d exceeds limit %d", tasks64, model.MaxTasks)
	case edges64 > maxEdges:
		return nil, fmt.Errorf("wire: edge count %d exceeds limit %d", edges64, maxEdges)
	}
	tasks, edges := int(tasks64), int(edges64)

	// The section table must match the canonical geometry exactly: ids in
	// order, zero padding, densely packed payload starting at payloadStart,
	// lengths equal to what the header counts dictate.
	sizes := sectionSizes(tasks, edges, cores, banks)
	wantTotal := uint64(payloadStart)
	for id := 1; id <= sectionCount; id++ {
		wantTotal += sizes[id]
	}
	if uint64(total) != wantTotal {
		return nil, fmt.Errorf("wire: blob size %d, header counts require %d", total, wantTotal)
	}
	sections := make([][]byte, sectionCount+1)
	off := uint64(payloadStart)
	for id := 1; id <= sectionCount; id++ {
		d := headerSize + (id-1)*sectionDesc
		gotID := binary.LittleEndian.Uint32(data[d : d+4])
		pad := binary.LittleEndian.Uint32(data[d+4 : d+8])
		gotOff := binary.LittleEndian.Uint64(data[d+8 : d+16])
		gotLen := binary.LittleEndian.Uint64(data[d+16 : d+24])
		switch {
		case gotID != uint32(id):
			return nil, fmt.Errorf("wire: section %d in table slot %d, canonical order requires %d", gotID, id-1, id)
		case pad != 0:
			return nil, fmt.Errorf("wire: section %d has nonzero padding %#x", id, pad)
		case gotOff != off:
			return nil, fmt.Errorf("wire: section %d at offset %d, dense packing requires %d", id, gotOff, off)
		case gotLen != sizes[id]:
			return nil, fmt.Errorf("wire: section %d is %d bytes, header counts require %d", id, gotLen, sizes[id])
		}
		sections[id] = data[off : off+sizes[id]]
		off += sizes[id]
	}

	r := &model.RawGraph{
		Cores:      cores,
		Banks:      banks,
		WCET:       make([]model.Cycles, tasks),
		MinRelease: make([]model.Cycles, tasks),
		Core:       make([]model.CoreID, tasks),
		Local:      make([]model.Accesses, tasks),
		Demand:     make([]model.Accesses, tasks*banks),
		Edges:      make([]model.Edge, edges),
		OrderStart: make([]int32, cores+1),
		OrderIDs:   make([]model.TaskID, tasks),
		BankTable:  make([]model.BankID, cores),
	}
	decodeCycles(r.WCET, sections[secWCET])
	decodeCycles(r.MinRelease, sections[secMinRelease])
	decodeCoreIDs(r.Core, sections[secCore])
	decodeAccesses(r.Local, sections[secLocal])
	decodeAccesses(r.Demand, sections[secDemand])
	decodeEdges(r.Edges, sections[secEdges])
	decodeInt32s(r.OrderStart, sections[secOrderStart])
	decodeTaskIDs(r.OrderIDs, sections[secOrderIDs])
	decodeBankIDs(r.BankTable, sections[secBankTable])

	// Value-level vetting: magnitudes (MaxInput), index ranges, acyclicity,
	// order/mapping consistency — the same rules Graph.Validate enforces on
	// the JSON path.
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return r, nil
}

// The fill helpers below are the decode fast path: straight-line loops over
// pre-allocated destinations, no allocation, no branching beyond the loop.

//mia:hotpath
func decodeCycles(dst []model.Cycles, src []byte) {
	for i := range dst {
		dst[i] = model.Cycles(binary.LittleEndian.Uint64(src[i*size64:]))
	}
}

//mia:hotpath
func decodeAccesses(dst []model.Accesses, src []byte) {
	for i := range dst {
		dst[i] = model.Accesses(binary.LittleEndian.Uint64(src[i*size64:]))
	}
}

//mia:hotpath
func decodeCoreIDs(dst []model.CoreID, src []byte) {
	for i := range dst {
		dst[i] = model.CoreID(int32(binary.LittleEndian.Uint32(src[i*size32:])))
	}
}

//mia:hotpath
func decodeTaskIDs(dst []model.TaskID, src []byte) {
	for i := range dst {
		dst[i] = model.TaskID(int32(binary.LittleEndian.Uint32(src[i*size32:])))
	}
}

//mia:hotpath
func decodeBankIDs(dst []model.BankID, src []byte) {
	for i := range dst {
		dst[i] = model.BankID(int32(binary.LittleEndian.Uint32(src[i*size32:])))
	}
}

//mia:hotpath
func decodeInt32s(dst []int32, src []byte) {
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src[i*size32:]))
	}
}

//mia:hotpath
func decodeEdges(dst []model.Edge, src []byte) {
	for i := range dst {
		p := src[i*sizeEdge:]
		dst[i] = model.Edge{
			From:  model.TaskID(int32(binary.LittleEndian.Uint32(p[0:4]))),
			To:    model.TaskID(int32(binary.LittleEndian.Uint32(p[4:8]))),
			Words: model.Accesses(binary.LittleEndian.Uint64(p[8:16])),
		}
	}
}
