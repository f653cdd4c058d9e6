package engine_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/wire"
)

// The ingest benchmarks measure the full network-facing path from received
// request body to ready-to-analyze image, as the server runs it: the
// single-pass JSON scan into the flat form (CompileJSON) versus binary
// decode (CompileFromWire), both adopting the decoded arrays as the image
// slab. n=384 is the paper-scale graph the repository benchmark posts.
func ingestPayloads(b *testing.B, n int) (jsonBody, wireBody []byte) {
	b.Helper()
	p := gen.NewParams(n/64, 64)
	p.Seed = 7
	g := gen.MustLayered(p)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), wire.EncodeGraph(g)
}

func BenchmarkIngestJSON(b *testing.B) {
	for _, n := range []int{256, 384, 1024} {
		jsonBody, _ := ingestPayloads(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(jsonBody)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.CompileJSON(jsonBody, sched.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkIngestWire(b *testing.B) {
	for _, n := range []int{256, 1024} {
		_, wireBody := ingestPayloads(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(wireBody)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.CompileFromWire(wireBody, sched.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
