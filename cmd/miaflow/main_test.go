package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPeriodOverrunReported(t *testing.T) {
	var buf bytes.Buffer
	// Period far below the iteration makespan (~460 cycles on 4 cores).
	if err := run(context.Background(), []string{"-example", "src-fir-dec", "-period", "100", "-iterations", "3"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "PERIOD OVERRUN") {
		t.Errorf("overrun not reported:\n%s", buf.String())
	}
}

func TestFromJSONFile(t *testing.T) {
	const src = `{
		"actors": [
			{"name": "a", "wcet": 10, "local": 4},
			{"name": "b", "wcet": 20, "local": 6}
		],
		"channels": [{"from": 0, "to": 1, "produce": 2, "consume": 3, "tokenWords": 5}]
	}`
	dir := t.TempDir()
	path := filepath.Join(dir, "app.sdf.json")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-cores", "2", "-banks", "2", path}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "repetition vector [3 2]") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestStrategies(t *testing.T) {
	for _, s := range []string{"cyclic", "balance", "list"} {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-strategy", s, "-example", "src-fir-dec", "-nosim"}, &buf); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string // text the error must contain
	}{
		{nil, "need exactly one"},
		{[]string{"-example", "bogus"}, "unknown example"},
		{[]string{"-strategy", "bogus", "-example", "src-fir-dec"}, "unknown strategy"},
		{[]string{"/nonexistent.json"}, "/nonexistent.json"},
		// A bad platform is reported as itself, not as a dataflow deadlock.
		{[]string{"-example", "src-fir-dec", "-cores", "0"}, "mapper: 0 cores"},
		{[]string{"-example", "src-fir-dec", "-banks", "0"}, "at least 1 core and 1 bank"},
	}
	for _, tc := range cases {
		err := run(context.Background(), tc.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "deadlock") {
			t.Errorf("args %v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
	// Inconsistent SDF from file.
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	bad := `{"actors":[{"name":"a","wcet":1},{"name":"b","wcet":1}],
		"channels":[{"from":0,"to":1},{"from":0,"to":1,"produce":2}]}`
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{path}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Errorf("inconsistent SDF: err = %v", err)
	}
}

// TestGolden pins the full stdout of the documented miaflow paths against
// testdata/<name>.golden: the built-in example under every mapping
// strategy, alone, with a Gantt chart, and unrolled over three periods.
// The list variants omit -strategy, so they also pin the default.
func TestGolden(t *testing.T) {
	variants := []struct {
		suffix string
		args   []string
	}{
		{"", nil},
		{"_gantt80", []string{"-gantt", "80"}},
		{"_period800_iter3", []string{"-period", "800", "-iterations", "3"}},
	}
	for _, strategy := range []string{"cyclic", "balance", "list"} {
		for _, v := range variants {
			name := strategy + v.suffix
			args := []string{"-example", "src-fir-dec"}
			if strategy != "list" {
				args = append(args, "-strategy", strategy)
			}
			args = append(args, v.args...)
			t.Run(name, func(t *testing.T) {
				var buf bytes.Buffer
				if err := run(context.Background(), args, &buf); err != nil {
					t.Fatalf("run: %v", err)
				}
				want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				if got := buf.String(); got != string(want) {
					t.Errorf("miaflow %s: stdout differs from testdata/%s.golden\ngot:\n%swant:\n%s",
						strings.Join(args, " "), name, got, want)
				}
			})
		}
	}
}
