package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/model"
)

func TestGenerateToStdout(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-layers", "3", "-layersize", "4", "-cores", "4", "-banks", "4", "-seed", "7"}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	g, err := model.ReadJSON(&buf)
	if err != nil {
		t.Fatalf("output not a valid graph: %v", err)
	}
	if g.NumTasks() != 12 {
		t.Errorf("tasks = %d, want 12", g.NumTasks())
	}
}

func TestGenerateFamilyToFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "g.json")
	dot := filepath.Join(dir, "g.dot")
	err := run(context.Background(), []string{"-family", "NL", "-fixed", "4", "-tasks", "32", "-o", out, "-dot", dot}, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	g, err := model.ReadJSON(f)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if g.NumTasks() != 32 {
		t.Errorf("tasks = %d", g.NumTasks())
	}
	dotBytes, err := os.ReadFile(dot)
	if err != nil || !strings.Contains(string(dotBytes), "digraph") {
		t.Errorf("dot output bad: %v", err)
	}
}

func TestGenerateExamples(t *testing.T) {
	for _, name := range []string{"figure1", "figure2", "avionics"} {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-example", name}, &buf); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if _, err := model.ReadJSON(&buf); err != nil {
			t.Errorf("%s: invalid JSON: %v", name, err)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := [][]string{
		{},                    // no sizing
		{"-example", "bogus"}, // unknown example
		{"-family", "XX", "-fixed", "4", "-tasks", "16"}, // unknown family
		{"-family", "LS", "-fixed", "4", "-tasks", "15"}, // non-multiple
		{"-family", "LS"}, // missing fixed/tasks
		{"-layers", "2", "-layersize", "2", "-cores", "0"}, // bad platform
	}
	for _, args := range cases {
		if err := run(context.Background(), args, nil); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestSTGImportExport(t *testing.T) {
	dir := t.TempDir()
	stgIn := filepath.Join(dir, "in.stg")
	const src = "4\n0 0 0\n1 12 1 0\n2 18 1 0\n3 0 2 1 2\n"
	if err := os.WriteFile(stgIn, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonOut := filepath.Join(dir, "g.json")
	stgOut := filepath.Join(dir, "out.stg")
	if err := run(context.Background(), []string{"-fromstg", stgIn, "-cores", "2", "-banks", "2", "-o", jsonOut, "-stg", stgOut}, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := model.ReadJSON(f)
	if err != nil {
		t.Fatalf("imported JSON invalid: %v", err)
	}
	if g.NumTasks() != 4 {
		t.Fatalf("tasks = %d", g.NumTasks())
	}
	if g.WCET[1] != 12 {
		t.Errorf("wcet[1] = %d", g.WCET[1])
	}
	if g.Local[1] == 0 {
		t.Error("memory annotations not synthesized")
	}
	round, err := os.ReadFile(stgOut)
	if err != nil || !strings.HasPrefix(string(round), "4\n") {
		t.Errorf("stg export bad: %v", err)
	}
}

// TestGoldenSTGImport pins the -fromstg path byte for byte: the JSON miagen
// writes for testdata/import.stg (TestSTGImportExport's graph) and the STG
// it exports back.
func TestGoldenSTGImport(t *testing.T) {
	stgOut := filepath.Join(t.TempDir(), "export.stg")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-fromstg", filepath.Join("testdata", "import.stg"), "-cores", "2", "-banks", "2", "-stg", stgOut}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	exported, err := os.ReadFile(stgOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		golden string
		got    []byte
	}{
		{"import.json.golden", buf.Bytes()},
		{"export.stg.golden", exported},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("output differs from testdata/%s\ngot:\n%swant:\n%s", c.golden, c.got, want)
		}
	}
}
