package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestScheduleFigure1(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-example", "figure1", "-gantt", "60"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"makespan) = 7 cycles", "n3 I:2", "incremental"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScheduleFixpoint(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-algo", "fixpoint", "-example", "figure1"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "fixpoint") {
		t.Errorf("output = %s", buf.String())
	}
}

func TestScheduleFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.json")
	const src = `{
		"cores": 2, "banks": 1,
		"tasks": [
			{"id": 0, "name": "a", "wcet": 10, "core": 0, "local": 5},
			{"id": 1, "name": "b", "wcet": 10, "core": 1, "local": 5}
		],
		"edges": []
	}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "out.csv")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-csv", csvPath, path}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatalf("csv: %v", err)
	}
	if !strings.Contains(string(csv), "a,0,0,10,5,15,15") {
		t.Errorf("csv content:\n%s", csv)
	}
}

func TestScheduleEventsAndPartition(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-example", "figure2", "-events", "-partition", "5"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "t=5 C=") {
		t.Errorf("partition line missing:\n%s", out)
	}
	if !strings.Contains(out, "open") {
		t.Errorf("event log missing")
	}
}

func TestScheduleArbiters(t *testing.T) {
	for _, arb := range []string{"rr", "hier-rr", "tdm", "fp", "none"} {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-arbiter", arb, "-example", "avionics"}, &buf); err != nil {
			t.Errorf("%s: %v", arb, err)
		}
	}
}

func TestScheduleUnschedulable(t *testing.T) {
	if err := run(context.Background(), []string{"-example", "figure1", "-deadline", "3"}, &bytes.Buffer{}); err == nil {
		t.Fatal("impossible deadline accepted")
	}
}

func TestScheduleErrors(t *testing.T) {
	cases := [][]string{
		{},                    // no input
		{"-example", "bogus"}, // unknown example
		{"-algo", "bogus", "-example", "figure1"},               // unknown algorithm
		{"-arbiter", "bogus", "-example", "figure1"},            // unknown arbiter
		{"-algo", "fixpoint", "-events", "-example", "figure1"}, // baseline has no trace
		{"/nonexistent/graph.json"},                             // missing file
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestScheduleSVGGantt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig1.svg")
	if err := run(context.Background(), []string{"-example", "figure1", "-svg", path}, &bytes.Buffer{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	svg, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read svg: %v", err)
	}
	for _, want := range []string{"<svg", "n3 I:2", "makespan 7 cycles"} {
		if !strings.Contains(string(svg), want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestCriticalityFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-example", "figure1", "-deadline", "10", "-criticality"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "per-task WCET slack") || !strings.Contains(out, "n3") {
		t.Errorf("output:\n%s", out)
	}
	if err := run(context.Background(), []string{"-example", "figure1", "-criticality"}, &bytes.Buffer{}); err == nil {
		t.Error("criticality without deadline accepted")
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-example", "avionics", "-cpuprofile", cpu, "-memprofile", mem}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

func TestProfileFlagBadPath(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-example", "figure1", "-cpuprofile", filepath.Join(t.TempDir(), "no", "dir", "x")}, &buf)
	if err == nil {
		t.Fatal("expected error for unwritable profile path")
	}
}

// TestGolden pins the full stdout of the documented miasched paths against
// testdata/<name>.golden: Figure 1 with and without interference, the
// Figure 2 cursor trace, the avionics DAG under three arbiters, and the
// criticality report.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"figure1_gantt60", []string{"-example", "figure1", "-gantt", "60"}},
		{"figure1_none_gantt60", []string{"-example", "figure1", "-arbiter", "none", "-gantt", "60"}},
		{"figure2_events_partition5_gantt68", []string{"-example", "figure2", "-events", "-partition", "5", "-gantt", "68"}},
		{"avionics_none_gantt76", []string{"-example", "avionics", "-arbiter", "none", "-gantt", "76"}},
		{"avionics_rr_gantt76", []string{"-example", "avionics", "-arbiter", "rr", "-gantt", "76"}},
		{"avionics_tdm_gantt76", []string{"-example", "avionics", "-arbiter", "tdm", "-gantt", "76"}},
		{"figure1_deadline10_criticality", []string{"-example", "figure1", "-deadline", "10", "-criticality"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(context.Background(), tc.args, &buf); err != nil {
				t.Fatalf("run: %v", err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("miasched %s: stdout differs from testdata/%s.golden\ngot:\n%swant:\n%s",
					strings.Join(tc.args, " "), tc.name, got, want)
			}
		})
	}
}
