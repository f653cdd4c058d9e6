package wire

import (
	"encoding/binary"

	"github.com/mia-rt/mia/internal/model"
)

// Encode serializes the flat graph into a version-1 blob. The input is
// assumed structurally well-formed (as held by a model.Graph or returned by
// a prior Decode); Encode panics on shape violations rather than silently
// writing a blob Decode would reject.
func Encode(r *model.RawGraph) []byte {
	tasks, edges := r.NumTasks(), len(r.Edges)
	sizes := sectionSizes(tasks, edges, r.Cores, r.Banks)
	total := uint64(payloadStart)
	for id := 1; id <= sectionCount; id++ {
		total += sizes[id]
	}
	buf := make([]byte, total)

	copy(buf[0:4], Magic)
	binary.LittleEndian.PutUint16(buf[4:6], Version)
	binary.LittleEndian.PutUint16(buf[6:8], sectionCount)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(r.Cores))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(r.Banks))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(tasks))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(edges))
	binary.LittleEndian.PutUint64(buf[32:40], total)

	off := uint64(payloadStart)
	for id := 1; id <= sectionCount; id++ {
		d := headerSize + (id-1)*sectionDesc
		binary.LittleEndian.PutUint32(buf[d:d+4], uint32(id))
		binary.LittleEndian.PutUint64(buf[d+8:d+16], off)
		binary.LittleEndian.PutUint64(buf[d+16:d+24], sizes[id])
		payload := buf[off : off+sizes[id]]
		switch id {
		case secWCET:
			encodeCycles(payload, r.WCET)
		case secMinRelease:
			encodeCycles(payload, r.MinRelease)
		case secCore:
			for i, v := range r.Core {
				binary.LittleEndian.PutUint32(payload[i*size32:], uint32(int32(v)))
			}
		case secLocal:
			encodeAccesses(payload, r.Local)
		case secDemand:
			encodeAccesses(payload, r.Demand)
		case secEdges:
			for i, e := range r.Edges {
				p := payload[i*sizeEdge:]
				binary.LittleEndian.PutUint32(p[0:4], uint32(int32(e.From)))
				binary.LittleEndian.PutUint32(p[4:8], uint32(int32(e.To)))
				binary.LittleEndian.PutUint64(p[8:16], uint64(e.Words))
			}
		case secOrderStart:
			for i, v := range r.OrderStart {
				binary.LittleEndian.PutUint32(payload[i*size32:], uint32(v))
			}
		case secOrderIDs:
			for i, v := range r.OrderIDs {
				binary.LittleEndian.PutUint32(payload[i*size32:], uint32(int32(v)))
			}
		case secBankTable:
			for i, v := range r.BankTable {
				binary.LittleEndian.PutUint32(payload[i*size32:], uint32(int32(v)))
			}
		}
		off += sizes[id]
	}
	return buf
}

// EncodeGraph serializes a built graph's flat form: the convenience entry
// point for clients that assemble graphs through Builder or JSON and want
// to ship them in wire form.
func EncodeGraph(g *model.Graph) []byte {
	return Encode(g.Raw())
}

func encodeCycles(dst []byte, src []model.Cycles) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*size64:], uint64(v))
	}
}

func encodeAccesses(dst []byte, src []model.Accesses) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*size64:], uint64(v))
	}
}
