// Package wire defines the flat binary graph format of the analysis
// service: a versioned, little-endian encoding of model.RawGraph whose
// sections are exactly the arrays of the compiled engine image (flat WCET /
// MinRelease / Core / Local vectors, the task-major demand matrix, the edge
// list, the CSR execution orders, and the core→bank table). Because the
// layout already is the slab layout, engine.CompileFromWire ingests a blob
// with bounds-checked copies instead of JSON decode → Graph build →
// Compile — no intermediate per-task object graph on the hot path.
//
// # Layout (version 1)
//
// All integers are little-endian. A blob is header, section table, payload:
//
//	offset  size  field
//	     0     4  magic "MIAW"
//	     4     2  version (currently 1)
//	     6     2  section count (currently 9)
//	     8     4  cores (uint32)
//	    12     4  banks (uint32)
//	    16     8  tasks (uint64)
//	    24     8  edges (uint64)
//	    32     8  total blob size in bytes (uint64)
//	    40   216  section table: 9 × {id uint32, pad uint32, off uint64, len uint64}
//	   256     —  payload (sections, in table order, densely packed)
//
// The nine sections, in their fixed canonical order:
//
//	id  name        element                 size
//	 1  WCET        int64 cycles            tasks × 8
//	 2  MinRelease  int64 cycles            tasks × 8
//	 3  Core        int32 core id           tasks × 4
//	 4  Local       int64 accesses          tasks × 8
//	 5  Demand      int64 accesses          tasks × banks × 8 (task-major)
//	 6  Edges       {from,to int32; words int64}  edges × 16
//	 7  OrderStart  int32 CSR index         (cores+1) × 4
//	 8  OrderIDs    int32 task id           tasks × 4
//	 9  BankTable   int32 bank id           cores × 4
//
// # Compatibility rule
//
// The format is versioned, not self-describing: a version-1 decoder rejects
// any other version and any blob whose section table deviates from the
// canonical ids, order, offsets, or lengths above. Evolving the format
// means bumping the version and teaching the decoder both shapes; it never
// means silently skipping unknown sections (a graph with a section the
// decoder ignores would analyze differently than the encoder intended,
// which for a safety analysis is worse than an error).
//
// # Strictness
//
// Decode is exactly as strict as the JSON ingestion path: after the
// structural checks (magic, version, counts against hard limits, section
// table geometry, CSR monotonicity) the decoded RawGraph runs
// model.RawGraph.Validate, which enforces the same value-level rules as
// model.Graph.Validate — including rejection of any magnitude past
// model.MaxInput, the repository-wide overflow guard.
package wire

// Format identification and geometry. headerSize + sectionCount×sectionDesc
// lands the payload at offset 256; the constants are spelled out (and
// cross-checked by a test) rather than derived so the documented layout is
// the code.
const (
	// Magic is the four-byte signature opening every blob.
	Magic = "MIAW"

	// Version is the format version this package encodes and decodes.
	Version = 1

	headerSize   = 40
	sectionCount = 9
	sectionDesc  = 24 // uint32 id + uint32 pad + uint64 off + uint64 len
	payloadStart = headerSize + sectionCount*sectionDesc

	// MinBlobSize is the size of the smallest structurally possible blob:
	// header plus full section table (an empty-graph payload is 8 bytes of
	// OrderStart and BankTable even with zero tasks, so real blobs are
	// larger; Decode checks exact sizes, this is the floor for reading the
	// header at all).
	MinBlobSize = payloadStart
)

// Section ids, in canonical table order.
const (
	secWCET       = 1
	secMinRelease = 2
	secCore       = 3
	secLocal      = 4
	secDemand     = 5
	secEdges      = 6
	secOrderStart = 7
	secOrderIDs   = 8
	secBankTable  = 9
)

// maxEdges bounds the declared edge count. Together with model.MaxTasks,
// model.MaxCores and model.MaxBanks (the limits every graph decoder
// shares) it is checked before any size arithmetic, so a hostile header
// cannot drive multiplication overflow or absurd allocations.
const maxEdges = 1 << 24

// elemSize gives each section's element size in bytes.
const (
	size64   = 8
	size32   = 4
	sizeEdge = 16
)

// sectionSizes returns the exact required payload length of every section
// for the given counts, indexed by section id. Counts are pre-checked
// against the limits above, so the products cannot overflow.
func sectionSizes(tasks, edges, cores, banks int) [sectionCount + 1]uint64 {
	var s [sectionCount + 1]uint64
	s[secWCET] = uint64(tasks) * size64
	s[secMinRelease] = uint64(tasks) * size64
	s[secCore] = uint64(tasks) * size32
	s[secLocal] = uint64(tasks) * size64
	s[secDemand] = uint64(tasks) * uint64(banks) * size64
	s[secEdges] = uint64(edges) * sizeEdge
	s[secOrderStart] = uint64(cores+1) * size32
	s[secOrderIDs] = uint64(tasks) * size32
	s[secBankTable] = uint64(cores) * size32
	return s
}
