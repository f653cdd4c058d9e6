package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: github.com/mia-rt/mia/internal/sched/incremental
cpu: Intel(R) Xeon(R) CPU @ 2.20GHz
BenchmarkScheduleIncremental/n=256-8         	    1000	    100000 ns/op	       0 B/op	       0 allocs/op
BenchmarkRescheduleWarm/n=256/warm-8         	    5000	     20000 ns/op	       0 B/op	       0 allocs/op
BenchmarkRescheduleWarm/n=256/cold-8         	    1000	    210000 ns/op	   60720 B/op	     264 allocs/op
PASS
ok  	github.com/mia-rt/mia/internal/sched/incremental	2.1s
`

func writeTempBaseline(t *testing.T, input string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-baseline", path, "-update"}, strings.NewReader(input), &out); err != nil {
		t.Fatalf("update: %v", err)
	}
	return path
}

func TestUpdateWritesBaseline(t *testing.T) {
	path := writeTempBaseline(t, sampleBench)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e, ok := b.Benchmarks["BenchmarkRescheduleWarm/n=256/warm"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped; keys: %v", b.Benchmarks)
	}
	if e.NsOp != 20000 || e.AllocsOp == nil || *e.AllocsOp != 0 {
		t.Fatalf("entry = %+v", e)
	}
}

func TestUpdateRecordsMachine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input string
		want  machine
	}{
		{"suffixed", sampleBench, machine{CPU: "Intel(R) Xeon(R) CPU @ 2.20GHz", GOMAXPROCS: 8, Go: runtime.Version()}},
		// go test prints no suffix at GOMAXPROCS=1, and no cpu line on
		// platforms it cannot identify.
		{"bare", "BenchmarkX 	 100	 5000 ns/op\n", machine{GOMAXPROCS: 1, Go: runtime.Version()}},
	} {
		data, err := os.ReadFile(writeTempBaseline(t, tc.input))
		if err != nil {
			t.Fatal(err)
		}
		var b baseline
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatal(err)
		}
		if b.Machine == nil || *b.Machine != tc.want {
			t.Fatalf("%s: machine = %+v, want %+v", tc.name, b.Machine, tc.want)
		}
	}
}

// TestCompareAcrossMachinesWarnsFirst: a baseline stamped by another machine
// draws exactly one warning, ahead of every per-benchmark line, and the
// comparison still succeeds.
func TestCompareAcrossMachinesWarnsFirst(t *testing.T) {
	path := writeTempBaseline(t, sampleBench)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	b.Machine.CPU, b.Machine.GOMAXPROCS = "AMD EPYC 7B13", 64
	if data, err = json.Marshal(&b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	slow := strings.Replace(sampleBench, "20000 ns/op", "90000 ns/op", 1)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-baseline", path}, strings.NewReader(slow), &out); err != nil {
		t.Fatalf("a foreign baseline must not fail the run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !strings.HasPrefix(lines[0], "WARN: baseline was measured on") || !strings.Contains(lines[0], "AMD EPYC 7B13") {
		t.Fatalf("first line is not the machine warning:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "baseline was measured on"); n != 1 {
		t.Fatalf("machine warning printed %d times:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "4.5x") {
		t.Fatalf("the comparison itself must still run:\n%s", out.String())
	}
}

func TestCompareWithinThresholdIsQuiet(t *testing.T) {
	path := writeTempBaseline(t, sampleBench)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-baseline", path}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "WARN") {
		t.Fatalf("identical numbers warned:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "within 2.0x") {
		t.Fatalf("missing summary:\n%s", out.String())
	}
}

func TestCompareWarnsButExitsZero(t *testing.T) {
	path := writeTempBaseline(t, sampleBench)
	slow := strings.Replace(sampleBench, "20000 ns/op", "90000 ns/op", 1)
	var out bytes.Buffer
	// A 4.5x time regression must warn yet still return nil (warn-don't-fail).
	if err := run(context.Background(), []string{"-baseline", path}, strings.NewReader(slow), &out); err != nil {
		t.Fatalf("regression must not fail the run: %v", err)
	}
	if !strings.Contains(out.String(), "WARN") || !strings.Contains(out.String(), "4.5x") {
		t.Fatalf("missing warning:\n%s", out.String())
	}
}

func TestCompareNoiseBelowThresholdIgnored(t *testing.T) {
	path := writeTempBaseline(t, sampleBench)
	noisy := strings.Replace(sampleBench, "20000 ns/op", "35000 ns/op", 1) // 1.75x < 2x
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-baseline", path}, strings.NewReader(noisy), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "WARN") {
		t.Fatalf("sub-threshold noise warned:\n%s", out.String())
	}
}

func TestZeroAllocContractWarnsOnAnyAlloc(t *testing.T) {
	path := writeTempBaseline(t, sampleBench)
	leaky := strings.Replace(sampleBench,
		"5000	     20000 ns/op	       0 B/op	       0 allocs/op",
		"5000	     20000 ns/op	      48 B/op	       1 allocs/op", 1)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-baseline", path}, strings.NewReader(leaky), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "allocation-free contract") {
		t.Fatalf("1 alloc against a 0-alloc baseline must warn:\n%s", out.String())
	}
}

func TestGitHubAnnotations(t *testing.T) {
	path := writeTempBaseline(t, sampleBench)
	slow := strings.Replace(sampleBench, "20000 ns/op", "90000 ns/op", 1)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-baseline", path, "-gha"}, strings.NewReader(slow), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "::warning title=benchmark regression::") {
		t.Fatalf("missing GHA annotation:\n%s", out.String())
	}
}

func TestUnknownBenchmarkWarns(t *testing.T) {
	path := writeTempBaseline(t, sampleBench)
	extra := sampleBench + "BenchmarkNew/thing-8 	 100	 5000 ns/op\n"
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-baseline", path}, strings.NewReader(extra), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BenchmarkNew/thing: not in baseline") {
		t.Fatalf("missing warning:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "could not be fully compared") {
		t.Fatalf("missing drift summary:\n%s", out.String())
	}
}

// TestDegenerateBaselines pins the hardened comparison paths: non-positive
// pinned values and candidate-only metrics draw warn-annotations instead of
// panicking, dividing into ±Inf, or passing silently. Every case must still
// exit zero — benchdiff fails only on unreadable input.
func TestDegenerateBaselines(t *testing.T) {
	writeBaselineFile := func(t *testing.T, body string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "BENCH_baseline.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	input := "BenchmarkX-8 	 100	 5000 ns/op	 10 allocs/op\n"
	cases := []struct {
		name     string
		baseline string
		input    string
		want     string // substring that must appear in output
		veto     string // substring that must NOT appear (empty = none)
	}{
		{
			name:     "zero baseline ns/op",
			baseline: `{"benchmarks":{"BenchmarkX":{"ns_op":0}}}`,
			input:    input,
			want:     "non-positive",
			veto:     "Inf",
		},
		{
			name:     "negative baseline ns/op",
			baseline: `{"benchmarks":{"BenchmarkX":{"ns_op":-12}}}`,
			input:    input,
			want:     "non-positive",
			veto:     "Inf",
		},
		{
			name:     "allocs measured but not pinned",
			baseline: `{"benchmarks":{"BenchmarkX":{"ns_op":5000}}}`,
			input:    input,
			want:     "no allocation data",
		},
		{
			name:     "negative baseline allocs",
			baseline: `{"benchmarks":{"BenchmarkX":{"ns_op":5000,"allocs_op":-3}}}`,
			input:    input,
			want:     "negative",
			veto:     "Inf",
		},
		{
			name:     "allocs pinned but not measured is fine",
			baseline: `{"benchmarks":{"BenchmarkX":{"ns_op":5000,"allocs_op":10}}}`,
			input:    "BenchmarkX-8 	 100	 5000 ns/op\n",
			want:     "within 2.0x",
			veto:     "WARN",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeBaselineFile(t, tc.baseline)
			var out bytes.Buffer
			if err := run(context.Background(), []string{"-baseline", path}, strings.NewReader(tc.input), &out); err != nil {
				t.Fatalf("degenerate baseline must not fail the run: %v", err)
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("missing %q in output:\n%s", tc.want, out.String())
			}
			if tc.veto != "" && strings.Contains(out.String(), tc.veto) {
				t.Errorf("output must not contain %q:\n%s", tc.veto, out.String())
			}
		})
	}
}

// sampleQuantileBench mirrors the serve benchmarks' b.ReportMetric output:
// latency quantiles interleaved with the standard -benchmem columns.
const sampleQuantileBench = `BenchmarkServeRescheduleBatch-8 	      30	   2500000 ns/op	         1.250 p50-ms	         2.100 p95-ms	         3.000 p99-ms	 1344000 B/op	   15853 allocs/op
PASS
`

func TestCustomMetricsPinnedAndCompared(t *testing.T) {
	path := writeTempBaseline(t, sampleQuantileBench)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e := b.Benchmarks["BenchmarkServeRescheduleBatch"]
	if e.Metrics["p50-ms"] != 1.25 || e.Metrics["p95-ms"] != 2.1 || e.Metrics["p99-ms"] != 3 {
		t.Fatalf("quantile metrics not pinned: %+v", e.Metrics)
	}
	if _, ok := e.Metrics["B/op"]; ok {
		t.Fatalf("B/op must not be treated as a custom metric: %+v", e.Metrics)
	}

	// Within threshold: quiet.
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-baseline", path}, strings.NewReader(sampleQuantileBench), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "WARN") {
		t.Fatalf("identical quantiles warned:\n%s", out.String())
	}

	// A quantile regression past the threshold warns even when ns/op holds.
	slow := strings.Replace(sampleQuantileBench, "1.250 p50-ms", "9.000 p50-ms", 1)
	out.Reset()
	if err := run(context.Background(), []string{"-baseline", path}, strings.NewReader(slow), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "p50-ms") || !strings.Contains(out.String(), "WARN") {
		t.Fatalf("p50-ms regression must warn:\n%s", out.String())
	}
}

func TestCustomMetricsAbsentFromBaselineAreSilent(t *testing.T) {
	// Baseline written before the benchmark grew quantile metrics: the new
	// metrics must compare silently, not as drift.
	noMetrics := "BenchmarkServeRescheduleBatch-8 	      30	   2500000 ns/op	 1344000 B/op	   15853 allocs/op\n"
	path := writeTempBaseline(t, noMetrics)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-baseline", path}, strings.NewReader(sampleQuantileBench), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "WARN") {
		t.Fatalf("fresh metrics against a metric-less baseline must not warn:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "within 2.0x") {
		t.Fatalf("missing clean summary:\n%s", out.String())
	}
}

func TestEmptyInputFails(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{}, strings.NewReader("no benchmarks here\n"), &out); err == nil {
		t.Fatal("empty input must fail (broken pipe upstream)")
	}
}

func TestMissingBaselineFails(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-baseline", filepath.Join(t.TempDir(), "absent.json")},
		strings.NewReader(sampleBench), &out)
	if err == nil {
		t.Fatal("missing baseline must fail")
	}
}

func TestBadThresholdRejected(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-threshold", "0.5"}, strings.NewReader(sampleBench), &out); err == nil {
		t.Fatal("threshold ≤ 1 must be rejected")
	}
}
