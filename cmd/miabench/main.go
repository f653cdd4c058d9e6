// Command miabench regenerates the paper's evaluation (Section V):
//
//   - the six panels of Figure 3 (families LS and NL, fixed dimension 4,
//     16 and 64): runtime of the O(n⁴) baseline and the O(n²) incremental
//     algorithm over growing task counts, with per-run timeouts and
//     log–log complexity fits;
//   - the headline numbers quoted in the text (LS64 @ 256 tasks and NL64 @
//     384 tasks, where the paper reports ≈270× and ≈593× speedups);
//   - the conclusion's scalability claim (8000+ tasks in reasonable time);
//   - the agreement statistics between the two analyses.
//
// Absolute seconds differ from the paper's (their baseline is C++, their
// new algorithm is interpreted Python; both of ours are Go): the
// reproduction targets are the complexity exponents and the
// orders-of-magnitude gap, which are implementation-independent.
//
// Usage:
//
//	miabench                        # quick Figure 3 (all six panels)
//	miabench -panels LS64,NL64     # selected panels
//	miabench -full                 # larger sweeps (minutes to hours)
//	miabench -headline             # the paper's two quoted configurations
//	miabench -scale                # 1k..8k task scaling, incremental only
//	miabench -agreement            # fixpoint vs incremental agreement
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/bench"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/pool"
	"github.com/mia-rt/mia/internal/prof"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/fixpoint"    // registers the "fixpoint" engine backend
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

func main() {
	// SIGINT/SIGTERM cancel the context; the sweep stops launching points,
	// in-flight scheduler runs abort through their cancellation hook, partial
	// CSV exports are flushed with a truncation marker, and the exit is
	// nonzero. A second signal kills the process the hard way (NotifyContext
	// restores the default handlers once canceled).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "miabench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("miabench", flag.ContinueOnError)
	var (
		panels    = fs.String("panels", "", `comma-separated panel list (e.g. "LS4,NL64"); empty = all six`)
		full      = fs.Bool("full", false, "larger size sweeps (the quick default finishes in minutes)")
		timeout   = fs.Duration("timeout", 60*time.Second, "per-run timeout for either algorithm")
		jobs      = fs.Int("jobs", 1, "measure this many sweep points concurrently (0 = one per CPU); outputs are identical at every level, only wall-clock fidelity differs")
		seed      = fs.Int64("seed", 1, "generation seed")
		cores     = fs.Int("cores", 16, "platform cores")
		banks     = fs.Int("banks", 16, "platform banks")
		shared    = fs.Bool("shared", false, "single shared bank (maximal contention)")
		headline  = fs.Bool("headline", false, "run the paper's two quoted configurations (E5)")
		scale     = fs.Bool("scale", false, "run the 8000-task scalability experiment (E6)")
		agreement = fs.Bool("agreement", false, "report fixpoint/incremental agreement statistics")
		dataDir   = fs.String("data", "", "also write per-panel CSV measurement series into this directory")
		svgDir    = fs.String("svg", "", "also render each panel as a Figure 3-style SVG into this directory")
		report    = fs.String("report", "", "also append each panel as a Markdown section to this file")
		quiet     = fs.Bool("q", false, "suppress progress lines")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprof   = fs.String("memprofile", "", "write a heap profile to this file (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cores < 1 || *banks < 1 {
		return fmt.Errorf("need at least 1 core and 1 bank (got %d, %d)", *cores, *banks)
	}
	stopProf, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	defer stopProf()
	// finish stops profiling explicitly on success paths so profile-write
	// errors surface (the defer above only covers error returns).
	finish := func(err error) error {
		if err != nil {
			return err
		}
		return stopProf()
	}

	progress := func(s string) { fmt.Fprintln(os.Stderr, "  "+s) }
	if *quiet {
		progress = nil
	}
	base := bench.Config{Seed: *seed, Cores: *cores, Banks: *banks, SharedBank: *shared,
		Timeout: *timeout, Arbiter: arbiter.NewRoundRobin(1), Jobs: pool.Jobs(*jobs)}

	switch {
	case *headline:
		return finish(runHeadline(ctx, stdout, base, progress))
	case *scale:
		return finish(runScale(ctx, stdout, base, *full, progress))
	case *agreement:
		return finish(runAgreement(ctx, stdout, base))
	}

	selected := map[string]bool{}
	if *panels != "" {
		for _, name := range strings.Split(*panels, ",") {
			selected[strings.TrimSpace(name)] = true
		}
	}
	for _, cfg := range figure3Configs(base, *full) {
		if len(selected) > 0 && !selected[cfg.Name()] {
			continue
		}
		panel, runErr := bench.RunPanelContext(ctx, cfg, []bench.Algorithm{bench.Incremental(), bench.Fixpoint()}, progress)
		if panel == nil {
			return runErr
		}
		// A truncated panel (SIGINT mid-sweep) still gets written: the table
		// and CSV carry explicit truncation markers, and the nonzero exit
		// below keeps the interruption visible to scripts.
		if err := panel.WriteTable(stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		if *dataDir != "" {
			if err := writePanelCSV(*dataDir, panel); err != nil {
				return err
			}
		}
		if *svgDir != "" {
			if err := writePanelSVG(*svgDir, panel); err != nil {
				return err
			}
		}
		if *report != "" {
			f, err := os.OpenFile(*report, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			err = panel.WriteMarkdown(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
		if runErr != nil {
			return fmt.Errorf("sweep interrupted: %w", runErr)
		}
	}
	return finish(nil)
}

// writePanelSVG renders one panel to <dir>/<panel>.svg.
func writePanelSVG(dir string, panel *bench.Panel) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, panel.Config.Name()+".svg"))
	if err != nil {
		return err
	}
	defer f.Close()
	return panel.LogLog().Render(f, 640, 480)
}

// writePanelCSV dumps one panel's measurement series to <dir>/<panel>.csv.
func writePanelCSV(dir string, panel *bench.Panel) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, panel.Config.Name()+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return panel.WriteCSV(f)
}

// figure3Configs builds the six panels. Sizes are multiples of the fixed
// dimension; the quick lists keep the baseline under a minute per panel
// while still spanning a decade of sizes for the fits.
func figure3Configs(base bench.Config, full bool) []bench.Config {
	sizes := func(fixed int, quick, fullSizes []int) []int {
		if full {
			return fullSizes
		}
		_ = fixed
		return quick
	}
	mk := func(family string, fixed int, quick, fullSizes []int) bench.Config {
		cfg := base
		cfg.Family, cfg.Fixed = family, fixed
		cfg.Sizes = sizes(fixed, quick, fullSizes)
		return cfg
	}
	return []bench.Config{
		mk("LS", 4, []int{32, 64, 128, 256, 512}, []int{32, 64, 128, 256, 512, 1024, 2048, 4096}),
		mk("LS", 16, []int{64, 128, 256, 512}, []int{64, 128, 256, 512, 1024, 2048, 4096}),
		mk("LS", 64, []int{128, 256, 512}, []int{128, 256, 512, 1024, 2048, 4096, 8192}),
		mk("NL", 4, []int{32, 64, 128, 256, 512}, []int{32, 64, 128, 256, 512, 1024, 2048, 4096}),
		mk("NL", 16, []int{64, 128, 256, 512}, []int{64, 128, 256, 512, 1024, 2048, 4096}),
		mk("NL", 64, []int{128, 256, 512}, []int{128, 256, 384, 512, 1024, 2048, 4096, 8192}),
	}
}

// runHeadline reproduces the two configurations the paper quotes (E5):
// LS64 with 256 tasks (C++ 1121.79 s vs Python 4.13 s, 270×) and NL64 with
// 384 tasks (C++ 535.24 s vs Python 0.90 s, 593×).
func runHeadline(ctx context.Context, w io.Writer, base bench.Config, progress func(string)) error {
	cases := []struct {
		family string
		fixed  int
		tasks  int
		paper  string
	}{
		{"LS", 64, 256, "paper: old 1121.79s, new 4.13s (270x)"},
		{"NL", 64, 384, "paper: old 535.24s, new 0.90s (593x)"},
	}
	fmt.Fprintln(w, "# Headline configurations (paper §V text)")
	fmt.Fprintf(w, "%-6s %-6s %14s %14s %10s   %s\n", "panel", "tasks", "incremental(s)", "fixpoint(s)", "speedup", "reference")
	for _, c := range cases {
		cfg := base
		cfg.Family, cfg.Fixed, cfg.Sizes = c.family, c.fixed, []int{c.tasks}
		panel, err := bench.RunPanelContext(ctx, cfg, []bench.Algorithm{bench.Incremental(), bench.Fixpoint()}, progress)
		if err != nil {
			return err
		}
		inc, fix := panel.Series[0].Points[0], panel.Series[1].Points[0]
		fixCell := fmt.Sprintf("%14.4f", fix.Seconds)
		speedup := "-"
		if fix.TimedOut {
			fixCell = fmt.Sprintf("%14s", "timeout")
		} else if inc.Seconds > 0 {
			speedup = fmt.Sprintf("%.0fx", fix.Seconds/inc.Seconds)
		}
		fmt.Fprintf(w, "%-6s %-6d %14.4f %s %10s   %s\n",
			cfg.Name(), c.tasks, inc.Seconds, fixCell, speedup, c.paper)
	}
	return nil
}

// runScale demonstrates the conclusion's claim: the incremental algorithm
// handles more than 8000 tasks in reasonable time (E6).
func runScale(ctx context.Context, w io.Writer, base bench.Config, full bool, progress func(string)) error {
	cfg := base
	cfg.Family, cfg.Fixed = "LS", 64
	cfg.Sizes = []int{1024, 2048, 4096, 8192}
	if full {
		cfg.Sizes = append(cfg.Sizes, 16384, 32768)
	}
	cfg.Timeout = 0 // the point is to finish
	panel, runErr := bench.RunPanelContext(ctx, cfg, []bench.Algorithm{bench.Incremental()}, progress)
	if panel == nil {
		return runErr
	}
	fmt.Fprintln(w, "# Scalability (paper §VI: \"more than 8000 tasks while maintaining a reasonable execution time\")")
	if err := panel.WriteTable(w); err != nil {
		return err
	}
	if runErr != nil {
		return fmt.Errorf("sweep interrupted: %w", runErr)
	}
	return nil
}

// runAgreement quantifies how often the two analyses produce identical
// schedules (see DESIGN.md: the analysis equations admit several consistent
// fixed points). Instances are independent, so they are compared on the
// worker pool; the tallies are reduced in submission order and the reported
// statistics do not depend on the jobs level.
func runAgreement(ctx context.Context, w io.Writer, base bench.Config) error {
	configs := []struct{ layers, size int }{{4, 8}, {8, 4}, {6, 16}, {16, 4}}
	const seeds = 25
	type tally struct{ identical, tasks, agree int }
	tallies, err := pool.Map(ctx, base.Jobs, len(configs)*seeds,
		func(ctx context.Context, i int) (tally, error) {
			c := configs[i/seeds]
			p := gen.NewParams(c.layers, c.size)
			p.Seed = int64(i%seeds) + 1
			p.Cores, p.Banks, p.SharedBank = base.Cores, base.Banks, base.SharedBank
			g, err := gen.Layered(p)
			if err != nil {
				return tally{}, err
			}
			// One compiled image serves both analyses: agreement is a
			// same-input comparison, so sharing the image removes any chance
			// of the two algorithms seeing different normalizations.
			img, err := engine.Compile(g, sched.Options{Arbiter: base.Arbiter})
			if err != nil {
				return tally{}, err
			}
			fast, err := engine.MustNew(engine.Incremental).Analyze(ctx, img)
			if err != nil {
				return tally{}, err
			}
			slow, err := engine.MustNew(engine.Fixpoint).Analyze(ctx, img)
			if err != nil {
				return tally{}, err
			}
			var t tally
			if fast.Equal(slow) {
				t.identical = 1
			}
			for i := range fast.Release {
				t.tasks++
				if fast.Release[i] == slow.Release[i] && fast.Response[i] == slow.Response[i] {
					t.agree++
				}
			}
			return t, nil
		})
	if err != nil {
		return err
	}
	instances, identical := len(tallies), 0
	var tasks, agree int
	for _, t := range tallies {
		identical += t.identical
		tasks += t.tasks
		agree += t.agree
	}
	fmt.Fprintln(w, "# Fixpoint vs incremental agreement (both are consistent fixed points; see DESIGN.md)")
	fmt.Fprintf(w, "identical schedules: %d/%d instances (%.0f%%)\n", identical, instances, 100*float64(identical)/float64(instances))
	fmt.Fprintf(w, "per-task agreement:  %d/%d tasks (%.1f%%)\n", agree, tasks, 100*float64(agree)/float64(tasks))
	return nil
}
