package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
)

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

// TestCriticalityFlag: -criticality without -deadline is refused before
// any analysis runs, so nothing reaches stdout. The report itself is pinned
// by the figure1_deadline10_criticality golden.
func TestCriticalityFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-example", "figure1", "-criticality"}, &buf); err == nil {
		t.Error("criticality without deadline accepted")
	}
	if buf.Len() != 0 {
		t.Errorf("rejected run wrote to stdout:\n%s", buf.String())
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

// goldenCases are the documented miasched paths whose full stdout
// testdata/<golden>.golden pins: Figure 1 under every backend and with and
// without interference, the Figure 2 cursor trace, the avionics DAG under
// every arbiter and under the -oracle path, and the criticality report.
// golden defaults to name.
var goldenCases = []struct {
	name, golden string
	args         []string
}{
	{name: "figure1_gantt60", args: []string{"-example", "figure1", "-gantt", "60"}},
	{name: "figure1_none_gantt60", args: []string{"-example", "figure1", "-arbiter", "none", "-gantt", "60"}},
	{name: "figure1_fixpoint_gantt60", args: []string{"-example", "figure1", "-algo", "fixpoint", "-gantt", "60"}},
	{name: "figure1_rta_gantt60", args: []string{"-example", "figure1", "-algo", "rta", "-gantt", "60"}},
	{name: "figure2_events_partition5_gantt68", args: []string{"-example", "figure2", "-events", "-partition", "5", "-gantt", "68"}},
	{name: "avionics_none_gantt76", args: []string{"-example", "avionics", "-arbiter", "none", "-gantt", "76"}},
	{name: "avionics_rr_gantt76", args: []string{"-example", "avionics", "-arbiter", "rr", "-gantt", "76"}},
	// The oracle hides additivity: another code path, the same schedule.
	{name: "avionics_rr_oracle_gantt76", golden: "avionics_rr_gantt76", args: []string{"-example", "avionics", "-arbiter", "rr", "-oracle", "-gantt", "76"}},
	{name: "avionics_tree-rr_gantt76", args: []string{"-example", "avionics", "-arbiter", "tree-rr", "-gantt", "76"}},
	{name: "avionics_tdm_gantt76", args: []string{"-example", "avionics", "-arbiter", "tdm", "-gantt", "76"}},
	{name: "avionics_fp_gantt76", args: []string{"-example", "avionics", "-arbiter", "fp", "-gantt", "76"}},
	{name: "figure1_deadline10_criticality", args: []string{"-example", "figure1", "-deadline", "10", "-criticality"}},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(context.Background(), tc.args, &buf); err != nil {
				t.Fatalf("run: %v", err)
			}
			golden := tc.golden
			if golden == "" {
				golden = tc.name
			}
			want, err := os.ReadFile(filepath.Join("testdata", golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("miasched %s: stdout differs from testdata/%s.golden\ngot:\n%swant:\n%s",
					strings.Join(tc.args, " "), golden, got, want)
			}
		})
	}
}

// TestGoldenCoversOptions: every -arbiter and -algo value miasched accepts
// has a TestGolden case, so an option cannot land without pinned output.
func TestGoldenCoversOptions(t *testing.T) {
	covered := map[string]bool{}
	for _, tc := range goldenCases {
		arb, algo := "rr", engine.Incremental // the flag defaults
		for i := 0; i+1 < len(tc.args); i++ {
			switch tc.args[i] {
			case "-arbiter":
				arb = tc.args[i+1]
			case "-algo":
				algo = tc.args[i+1]
			}
		}
		covered["-arbiter "+arb] = true
		covered["-algo "+algo] = true
	}
	var opts []string
	for _, name := range arbiter.Known() {
		opts = append(opts, "-arbiter "+name)
	}
	for _, name := range engine.Backends() {
		opts = append(opts, "-algo "+name)
	}
	for _, opt := range opts {
		if !covered[opt] {
			t.Errorf("miasched %s has no TestGolden case", opt)
		}
	}
}
