package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestCorruptedReplyCountsAsFailed: a reply that differs from the oracle
// in one number is a failed operation, and shows in failed_frac.
func TestCorruptedReplyCountsAsFailed(t *testing.T) {
	w := &coldIngest{}
	if err := w.generate(1); err != nil {
		t.Fatal(err)
	}
	var ops []*op
	for j := 0; j < 2; j++ {
		g, err := readGraph(w.body(j))
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleReply(g)
		if err != nil {
			t.Fatal(err)
		}
		if j == 1 {
			want.Response[5]-- // a bound one cycle too tight
		}
		body, _ := json.Marshal(want)
		ops = append(ops, &op{kind: "analyze", path: "/v1/analyze", status: 200, body: body, ref: j})
	}
	res, err := verify(w, ops, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted != 2 || res.failed != 1 || !ops[1].failed || ops[0].failed {
		t.Fatalf("attempted %d failed %d (%v), want the corrupted reply alone to fail", res.attempted, res.failed, res.errors)
	}
}

// TestBatchStreamChecks: the stream checker rejects a missing index, a
// duplicate index, a truncated trailer, and a missing trailer.
func TestBatchStreamChecks(t *testing.T) {
	line := func(i int) string { return `{"index":` + string(rune('0'+i)) + `,"status":200,"result":{}}` }
	trailer := `{"done":true,"items":2,"completed":2,"truncated":false}`
	good := line(0) + "\n" + line(1) + "\n" + trailer + "\n"
	if _, err := parseBatch([]byte(good), 2); err != nil {
		t.Fatalf("well-formed stream rejected: %v", err)
	}
	for name, body := range map[string]string{
		"missing index":   line(0) + "\n" + trailer + "\n",
		"duplicate index": line(0) + "\n" + line(0) + "\n" + trailer + "\n",
		"truncated":       line(0) + "\n" + line(1) + "\n" + strings.Replace(trailer, `"truncated":false`, `"truncated":true`, 1) + "\n",
		"no trailer":      line(0) + "\n" + line(1) + "\n",
		"two trailers":    good + trailer + "\n",
	} {
		if _, err := parseBatch([]byte(body), 2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestColdIngestFleet drives the real fleet briefly and expects every
// reply to pass its checks.
func TestColdIngestFleet(t *testing.T) {
	w := &coldIngest{}
	if err := w.generate(5); err != nil {
		t.Fatal(err)
	}
	res, err := measuredRun(w, 5, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%d of %d failed: %v", res.failed, res.attempted, res.errors)
	}
	for _, k := range []string{"p50_ms", "work_per_s", "setup_s", "peak_rss_mb"} {
		if v, ok := res.json[k]; !ok || v.Value <= 0 {
			t.Errorf("metric %s = %v, want a positive value", k, v)
		}
	}
}

// TestMetricKeysMatchBenchmarkJSON: a traced run reports exactly the
// per-layer metrics BENCHMARK.json declares, with their units, and the
// end-to-end mapping covers exactly its end-to-end metrics.
func TestMetricKeysMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	w := &paretoSearch{}
	if err := w.generate(1); err != nil {
		t.Fatal(err)
	}
	res, err := tracedRun(w, "pareto-search", 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.json) != len(b.PerLayer) {
		t.Errorf("traced run reports %d per-layer metrics, BENCHMARK.json declares %d", len(res.json), len(b.PerLayer))
	}
	for _, m := range b.PerLayer {
		if got, ok := res.json[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
	e2e := endToEnd([]metric{
		{name: "analyze_p50_ms", unit: "ms"}, {name: "analyze_tasks_per_s", unit: "1/s"},
		{name: "setup_s", unit: "s"}, {name: "peak_rss_mb", unit: "MB"},
	})
	if len(e2e) != len(b.EndToEnd) {
		t.Errorf("end-to-end mapping yields %d metrics, BENCHMARK.json declares %d", len(e2e), len(b.EndToEnd))
	}
	for _, m := range b.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
}

// TestCompareRefusesOtherMachineShapes: results from different machine
// shapes are not compared.
func TestCompareRefusesOtherMachineShapes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, nproc int, p50 float64) string {
		path := dir + "/" + name
		body := fmt.Sprintf("stamp {\"nproc\":%d,\"gomaxprocs\":%d,\"go\":\"go1.24.0\",\"workload\":\"cold-ingest\"}\n"+
			"{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"p50_ms\":{\"value\":%g,\"unit\":\"ms\"}}}\n", nproc, nproc, p50)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a", 2, 100), write("b", 2, 110), write("c", 16, 50)
	var out strings.Builder
	if code, err := compareOutputs(a, b, &out); code != 0 || err != nil || !strings.Contains(out.String(), "x1.100") {
		t.Errorf("same shape: code %d err %v output %q, want a x1.100 ratio", code, err, out.String())
	}
	out.Reset()
	if code, err := compareOutputs(a, c, &out); code != 0 || err != nil || !strings.HasPrefix(out.String(), "warning:") || strings.Contains(out.String(), "p50_ms") {
		t.Errorf("other shape: code %d err %v output %q, want a warning and no comparison", code, err, out.String())
	}
}
