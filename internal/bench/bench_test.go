package bench

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestRunPanelQuick(t *testing.T) {
	cfg := Config{
		Family: "LS", Fixed: 4,
		Sizes: []int{16, 32, 64},
		Cores: 4, Banks: 4,
		Seed: 1,
	}
	var progress []string
	panel, err := RunPanelContext(context.Background(), cfg, []Algorithm{Incremental(), Fixpoint()},
		func(s string) { progress = append(progress, s) })
	if err != nil {
		t.Fatalf("RunPanel: %v", err)
	}
	if len(panel.Series) != 2 {
		t.Fatalf("series = %d", len(panel.Series))
	}
	for _, s := range panel.Series {
		if len(s.Points) != 3 {
			t.Fatalf("%s: %d points", s.Algorithm, len(s.Points))
		}
		for _, pt := range s.Points {
			if pt.TimedOut || pt.Skipped {
				t.Errorf("%s n=%d unexpectedly timed out", s.Algorithm, pt.Tasks)
			}
			if pt.Seconds < 0 {
				t.Errorf("%s n=%d negative time", s.Algorithm, pt.Tasks)
			}
			if pt.Makespan <= 0 {
				t.Errorf("%s n=%d makespan %d", s.Algorithm, pt.Tasks, pt.Makespan)
			}
		}
		if !s.FitOK {
			t.Errorf("%s: no fit", s.Algorithm)
		}
	}
	if len(progress) != 6 {
		t.Errorf("progress lines = %d, want 6", len(progress))
	}
	// Both algorithms must report the same makespan on the same instances
	// or differ only by the baseline's extra pessimism — never the other
	// direction.
	for i := range panel.Series[0].Points {
		inc, fix := panel.Series[0].Points[i], panel.Series[1].Points[i]
		if fix.Makespan < inc.Makespan {
			t.Errorf("n=%d: baseline makespan %d < incremental %d", inc.Tasks, fix.Makespan, inc.Makespan)
		}
	}
}

func TestRunPanelTimeoutSkipsLargerSizes(t *testing.T) {
	cfg := Config{
		Family: "NL", Fixed: 4,
		Sizes: []int{512, 1024, 2048},
		Cores: 4, Banks: 1,
		SharedBank: true,
		// A 1 µs budget is below any real n=512 run, so the deadline fires
		// mid-run on any hardware; a previous 10 ms budget raced machines
		// fast enough to finish inside it.
		Timeout: time.Microsecond,
		Seed:    1,
	}
	panel, err := RunPanelContext(context.Background(), cfg, []Algorithm{Fixpoint()}, nil)
	if err != nil {
		t.Fatalf("RunPanel: %v", err)
	}
	pts := panel.Series[0].Points
	if !pts[0].TimedOut {
		t.Fatalf("first point did not time out: %+v", pts[0])
	}
	for _, pt := range pts[1:] {
		if !pt.Skipped {
			t.Errorf("n=%d not skipped after timeout", pt.Tasks)
		}
	}
	if panel.Series[0].FitOK {
		t.Error("fit computed from zero usable points")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := RunPanelContext(context.Background(), Config{Family: "XX", Fixed: 4, Sizes: []int{8}}, []Algorithm{Incremental()}, nil); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := RunPanelContext(context.Background(), Config{Family: "LS", Fixed: 4, Sizes: []int{10}}, []Algorithm{Incremental()}, nil); err == nil {
		t.Error("non-multiple size accepted")
	}
	if _, err := RunPanelContext(context.Background(), Config{Family: "LS", Fixed: 0, Sizes: []int{8}}, []Algorithm{Incremental()}, nil); err == nil {
		t.Error("zero fixed dimension accepted")
	}
}

func TestConfigName(t *testing.T) {
	if n := (Config{Family: "LS", Fixed: 64}).Name(); n != "LS64" {
		t.Errorf("Name = %q", n)
	}
}

func TestWriteTable(t *testing.T) {
	cfg := Config{Family: "LS", Fixed: 4, Sizes: []int{16, 32}, Cores: 4, Banks: 4, Seed: 1}
	panel, err := RunPanelContext(context.Background(), cfg, []Algorithm{Incremental(), Fixpoint()}, nil)
	if err != nil {
		t.Fatalf("RunPanel: %v", err)
	}
	var buf bytes.Buffer
	if err := panel.WriteTable(&buf); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"Panel LS4", "incremental(s)", "fixpoint(s)", "speedup", "fit incremental", "O(n^"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestLSAndNLFamiliesShapeGraphsDifferently(t *testing.T) {
	lsCfg := Config{Family: "LS", Fixed: 4}
	p, err := lsCfg.params(32)
	if err != nil {
		t.Fatal(err)
	}
	if p.LayerSize != 4 || p.Layers != 8 {
		t.Errorf("LS4 @32: %d layers × %d", p.Layers, p.LayerSize)
	}
	nlCfg := Config{Family: "NL", Fixed: 4}
	p, err = nlCfg.params(32)
	if err != nil {
		t.Fatal(err)
	}
	if p.Layers != 4 || p.LayerSize != 8 {
		t.Errorf("NL4 @32: %d layers × %d", p.Layers, p.LayerSize)
	}
}

// TestParallelSweepByteIdentical is the determinism contract behind the
// -jobs flag: with wall-clock noise removed (injected constant stopwatch),
// the rendered CSV and table bytes of a sweep must be identical at every
// jobs level — same point statuses, same makespans, same fitted exponents.
func TestParallelSweepByteIdentical(t *testing.T) {
	render := func(jobs int) (csv, table string, progress int) {
		cfg := Config{
			Family: "LS", Fixed: 4,
			Sizes: []int{16, 32, 64, 128},
			Cores: 4, Banks: 4,
			Seed: 1,
			Jobs: jobs,
			// Constant fake elapsed time: the only nondeterministic input
			// to the rendered bytes is the physical clock, so pin it.
			stopwatch: func() func() float64 {
				return func() float64 { return 0.25 }
			},
		}
		panel, err := RunPanelContext(context.Background(), cfg, []Algorithm{Incremental(), Fixpoint()},
			func(string) { progress++ })
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var c, tb bytes.Buffer
		if err := panel.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := panel.WriteTable(&tb); err != nil {
			t.Fatal(err)
		}
		return c.String(), tb.String(), progress
	}
	refCSV, refTable, refLines := render(1)
	for _, jobs := range []int{4, 8} {
		csv, table, lines := render(jobs)
		if csv != refCSV {
			t.Errorf("jobs=%d: CSV differs from sequential sweep:\n--- jobs=1 ---\n%s--- jobs=%d ---\n%s", jobs, refCSV, jobs, csv)
		}
		if table != refTable {
			t.Errorf("jobs=%d: table differs from sequential sweep:\n--- jobs=1 ---\n%s--- jobs=%d ---\n%s", jobs, refTable, jobs, table)
		}
		if lines != refLines {
			t.Errorf("jobs=%d: %d progress lines, want %d", jobs, lines, refLines)
		}
	}
}

// TestParallelTimeoutSkipDeterministic checks the skip-after-timeout rule
// under concurrency: even when a larger size finishes before a smaller one
// times out, the post-pass must mark everything above the first timeout as
// skipped, exactly like the sequential sweep.
func TestParallelTimeoutSkipDeterministic(t *testing.T) {
	cfg := Config{
		Family: "NL", Fixed: 4,
		Sizes: []int{512, 1024, 2048},
		Cores: 4, Banks: 1,
		SharedBank: true,
		Timeout:    10 * time.Millisecond,
		Seed:       1,
		Jobs:       4,
	}
	panel, err := RunPanelContext(context.Background(), cfg, []Algorithm{Fixpoint()}, nil)
	if err != nil {
		t.Fatalf("RunPanel: %v", err)
	}
	pts := panel.Series[0].Points
	if !pts[0].TimedOut {
		t.Fatalf("first point did not time out: %+v", pts[0])
	}
	for _, pt := range pts[1:] {
		if !pt.Skipped {
			t.Errorf("n=%d not skipped after timeout", pt.Tasks)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	cfg := Config{Family: "NL", Fixed: 4, Sizes: []int{16, 32}, Cores: 4, Banks: 4, Seed: 1}
	panel, err := RunPanelContext(context.Background(), cfg, []Algorithm{Incremental()}, nil)
	if err != nil {
		t.Fatalf("RunPanel: %v", err)
	}
	var buf bytes.Buffer
	if err := panel.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want header + 2 points:\n%s", len(lines), buf.String())
	}
	if lines[0] != "panel,algorithm,tasks,seconds,status" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "NL4,incremental,16,") || !strings.HasSuffix(lines[1], ",ok") {
		t.Errorf("row = %q", lines[1])
	}
}

// TestRunPanelContextCancellation pins the truncation contract: canceling
// mid-sweep returns the context error together with a partial panel whose
// measured points survive, whose unmeasured points are Skipped, and whose
// exports carry explicit truncation markers.
func TestRunPanelContextCancellation(t *testing.T) {
	cfg := Config{
		Family: "LS", Fixed: 4,
		Sizes: []int{16, 32, 64},
		Cores: 4, Banks: 4,
		Seed: 1,
		Jobs: 1, // sequential: cancellation after point 1 is deterministic
	}
	ctx, cancel := context.WithCancel(context.Background())
	panel, err := RunPanelContext(ctx, cfg, []Algorithm{Incremental()},
		func(string) { cancel() }) // fires after the first measurement
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if panel == nil || !panel.Truncated {
		t.Fatalf("canceled sweep must return a truncated panel, got %+v", panel)
	}
	pts := panel.Series[0].Points
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	if pts[0].Skipped || pts[0].Makespan <= 0 {
		t.Errorf("first point must be a completed measurement, got %+v", pts[0])
	}
	for _, pt := range pts[1:] {
		if !pt.Skipped {
			t.Errorf("unmeasured point n=%d must be Skipped, got %+v", pt.Tasks, pt)
		}
		if pt.Tasks == 0 {
			t.Errorf("skipped point lost its size: %+v", pt)
		}
	}

	var csv bytes.Buffer
	if err := panel.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "# TRUNCATED") {
		t.Errorf("partial CSV missing truncation marker:\n%s", csv.String())
	}
	var table bytes.Buffer
	if err := panel.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "TRUNCATED") {
		t.Errorf("partial table missing truncation marker:\n%s", table.String())
	}
	var md bytes.Buffer
	if err := panel.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "TRUNCATED") {
		t.Errorf("partial markdown missing truncation marker:\n%s", md.String())
	}
}

// TestRunPanelContextPreCanceled: a context dead on arrival yields a fully
// skipped truncated panel and the context error — never a nil-panel surprise.
func TestRunPanelContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Family: "LS", Fixed: 4, Sizes: []int{16}, Cores: 4, Banks: 4}
	panel, err := RunPanelContext(ctx, cfg, []Algorithm{Incremental()}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if panel == nil || !panel.Truncated {
		t.Fatalf("want truncated panel, got %+v", panel)
	}
	if pt := panel.Series[0].Points[0]; !pt.Skipped || pt.Tasks != 16 {
		t.Errorf("pre-canceled point = %+v, want Skipped with size 16", pt)
	}
}
