package engine

import (
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/wire"
)

// CompileFromWire decodes a binary wire blob straight into a problem image.
// It is the hot ingest path of the analysis service: wire.Decode validates
// structure and values once (exactly as strictly as the JSON path — see
// wire's package comment), and the decoded flat arrays are the image's slab
// layout already, so they are adopted without copying. Only the derived
// structures the wire format deliberately omits are built (compileRaw): the
// demand bitset masks and the CSR adjacency, both in linear time. No
// intermediate model.Graph is allocated.
//
// The resulting image is indistinguishable from Compile on the same graph:
// identical Fingerprint, identical analysis output from every backend, cold
// and warm.
func CompileFromWire(data []byte, opts sched.Options) (*Image, error) {
	raw, err := wire.Decode(data)
	if err != nil {
		return nil, err
	}
	return compileRaw(raw, opts), nil
}

// CompileJSON decodes a graph JSON document straight into a problem image:
// the JSON twin of CompileFromWire. model.DecodeJSON scans the document
// once into the flat form — validating it exactly as Builder would — and
// the image adopts those arrays as its slab, so no model.Graph is built on
// the way. The image is indistinguishable from Compile on the graph
// model.ReadJSON returns for the same bytes.
func CompileJSON(data []byte, opts sched.Options) (*Image, error) {
	raw, err := model.DecodeJSON(data)
	if err != nil {
		return nil, err
	}
	return compileRaw(raw, opts), nil
}
