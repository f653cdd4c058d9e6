package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
)

// benchEdits is the scenario count both serve benchmarks evaluate per
// iteration, so their ns/op compare directly: one hundred edit scenarios as
// a hundred unary requests vs one batch request.
const benchEdits = 100

// benchServe boots a single-worker server behind a real loopback TCP
// listener — the batch endpoint amortizes per-request transport and
// admission, so the benchmarks must include them the way a client pays them
// — registers a ~128-task layered graph, and returns identity-pair swap
// bodies for benchEdits scenarios (the same swap applied twice evaluates
// the baseline orders, so every scenario is schedulable by construction).
// A unary reschedule pays the full apply-replay-undo cost for each. In a
// batch all of them reach the same configuration, so the per-batch result
// memo answers every item after the first without a replay.
func benchServe(b *testing.B) (*httptest.Server, string, []string) {
	b.Helper()
	p := gen.NewParams(2, 64)
	p.Seed = 7
	g := gen.MustLayered(p)
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		b.Fatalf("serializing graph: %v", err)
	}
	body := benchPost(b, ts, "/v1/analyze", buf.String())
	var resp struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.Hash == "" {
		b.Fatalf("analyze response has no hash: %s", body)
	}
	var sites []string
	for k := 0; k < g.Cores; k++ {
		if ord := g.Order(model.CoreID(k)); len(ord) >= 2 {
			sites = append(sites, fmt.Sprintf(`{"core":%d,"pos":%d}`, k, len(ord)-2))
		}
	}
	swaps := make([]string, benchEdits)
	for i := range swaps {
		one := sites[i%len(sites)]
		swaps[i] = "[" + one + "," + one + "]"
	}
	return ts, resp.Hash, swaps
}

// benchPost issues one POST over the benchmark server's persistent client
// connection and returns the response body.
func benchPost(b *testing.B, ts *httptest.Server, path, body string) []byte {
	b.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatalf("reading %s response: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("POST %s: %d (%s)", path, resp.StatusCode, rb)
	}
	return rb
}

// reportQuantiles attaches per-request latency quantiles to the benchmark
// output (benchdiff carries these custom metrics alongside ns/op).
func reportQuantiles(b *testing.B, lat []time.Duration) {
	if len(lat) == 0 {
		return
	}
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	at := func(q float64) float64 { return ms[int(q*float64(len(ms)-1))] }
	b.ReportMetric(at(0.50), "p50-ms")
	b.ReportMetric(at(0.95), "p95-ms")
	b.ReportMetric(at(0.99), "p99-ms")
}

// BenchmarkServeRescheduleUnary evaluates benchEdits scenarios as that many
// sequential unary requests: each pays a full HTTP round trip, request
// decode, admission and a worker handoff.
func BenchmarkServeRescheduleUnary(b *testing.B) {
	ts, hash, swaps := benchServe(b)
	bodies := make([]string, len(swaps))
	for i, sw := range swaps {
		bodies[i] = fmt.Sprintf(`{"hash":%q,"swaps":%s}`, hash, sw)
	}
	var lat []time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			start := time.Now()
			benchPost(b, ts, "/v1/reschedule", body)
			lat = append(lat, time.Since(start))
		}
	}
	b.StopTimer()
	reportQuantiles(b, lat)
}

// BenchmarkServeRescheduleBatch evaluates the same benchEdits scenarios as
// one batch request: one round trip, one admission and one worker handoff
// amortized over every scenario.
func BenchmarkServeRescheduleBatch(b *testing.B) {
	ts, hash, swaps := benchServe(b)
	items := make([]string, len(swaps))
	for i, sw := range swaps {
		items[i] = `{"swaps":` + sw + `}`
	}
	body := fmt.Sprintf(`{"hash":%q,"items":[%s]}`, hash, strings.Join(items, ","))
	var lat []time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rb := benchPost(b, ts, "/v1/batch", body)
		lat = append(lat, time.Since(start))
		if !bytes.Contains(rb, []byte(`"truncated":false`)) {
			b.Fatalf("batch response not complete: %s", rb[len(rb)-min(len(rb), 200):])
		}
	}
	b.StopTimer()
	reportQuantiles(b, lat)
}
