package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOptGeneratedInstance runs a tiny search end to end and checks the
// summary plus the written canonical artifact.
func TestOptGeneratedInstance(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "front.json")
	var buf bytes.Buffer
	args := []string{"-gen", "4x3", "-cores", "4", "-banks", "4", "-graph-seed", "9",
		"-pop", "8", "-gens", "4", "-seed", "5", "-o", out}
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := buf.String()
	for _, want := range []string{"12 tasks", "non-dominated points", "makespan", "peak-interference", "bank-variance"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	artifact, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("reading artifact: %v", err)
	}
	if !strings.Contains(string(artifact), `"front"`) {
		t.Errorf("artifact missing front: %s", artifact)
	}

	// Byte-identical at a different -jobs level.
	out2 := filepath.Join(dir, "front2.json")
	args2 := []string{"-gen", "4x3", "-cores", "4", "-banks", "4", "-graph-seed", "9",
		"-pop", "8", "-gens", "4", "-seed", "5", "-jobs", "4", "-o", out2}
	if err := run(context.Background(), args2, &bytes.Buffer{}); err != nil {
		t.Fatalf("run (jobs=4): %v", err)
	}
	artifact2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatalf("reading artifact 2: %v", err)
	}
	if !bytes.Equal(artifact, artifact2) {
		t.Errorf("artifacts differ across -jobs levels")
	}
}

// TestOptObjectiveSelection runs with a custom objective vector.
func TestOptObjectiveSelection(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-gen", "4x3", "-cores", "4", "-banks", "4",
		"-pop", "6", "-gens", "2", "-objectives", "makespan,comm-affinity"}
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "objectives [makespan, comm-affinity]") {
		t.Errorf("output missing custom objectives:\n%s", buf.String())
	}
}

// TestOptBadArgs covers the argument error surface.
func TestOptBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-gen", "bogus"},
		{"-gen", "4x3", "-objectives", "nope"},
		{"nonexistent-file.json"},
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// TestCommittedFronts reruns the two searches results/README.md documents
// and requires their -o artifacts to equal the committed fronts byte for
// byte: a change to the search, the analysis or the instance generator
// that moves either front fails here, not in a later regeneration.
func TestCommittedFronts(t *testing.T) {
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"pareto_paper.json", []string{"-gen", "24x16", "-cores", "16", "-banks", "16",
			"-graph-seed", "1", "-pop", "24", "-gens", "30", "-seed", "42", "-jobs", "4"}},
		{"pareto_10x.json", []string{"-gen", "240x16", "-cores", "16", "-banks", "16",
			"-graph-seed", "1", "-pop", "12", "-gens", "8", "-seed", "42", "-jobs", "4"}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), tc.file)
			if err := run(context.Background(), append(tc.args, "-o", out), &bytes.Buffer{}); err != nil {
				t.Fatalf("run: %v", err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "results", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("miaopt %s -o: output differs from results/%s", strings.Join(tc.args, " "), tc.file)
			}
		})
	}
}
