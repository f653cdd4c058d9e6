// Package bench is the harness that regenerates the paper's evaluation
// (Section V): timed sweeps of both scheduling algorithms over random
// layer-by-layer DAGs, with per-run wall-clock timeouts, and log–log
// regression fits of the empirical complexity exponents — everything behind
// the six panels of Figure 3, the headline speedup numbers quoted in the
// text, and the 8000-task scalability claim of the conclusion.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/pool"
	"github.com/mia-rt/mia/internal/regress"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/fixpoint"    // registers the "fixpoint" engine backend
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

// Algorithm is a named analysis under measurement. Run analyzes a
// pre-compiled image: the harness compiles every sweep graph once outside
// the timed region, so the seconds measure the analysis itself, not input
// validation or layout flattening.
type Algorithm struct {
	Name string
	Run  func(context.Context, *engine.Image) (*sched.Result, error)
}

// Incremental returns the paper's O(n²) algorithm as a benchmark subject.
func Incremental() Algorithm {
	return Algorithm{Name: "incremental", Run: engine.MustNew(engine.Incremental).Analyze}
}

// Fixpoint returns the O(n⁴) baseline as a benchmark subject.
func Fixpoint() Algorithm {
	return Algorithm{Name: "fixpoint", Run: engine.MustNew(engine.Fixpoint).Analyze}
}

// Config describes one benchmark panel: a family (LS = fixed layer size,
// NL = fixed number of layers), the fixed dimension, and the series of
// total task counts to sweep.
type Config struct {
	// Family is "LS" (fixed layer size, growing layer count) or "NL"
	// (fixed number of layers, growing layer size) — the two input
	// generation approaches of Section V.
	Family string
	// Fixed is the value of the fixed dimension (4, 16 or 64 in Figure 3).
	Fixed int
	// Sizes lists the total task counts to measure. Each must be a
	// multiple of Fixed.
	Sizes []int
	// Timeout caps each individual run; an algorithm that times out at
	// some size is skipped for all larger sizes, like the paper's
	// benchmark. Zero means no timeout.
	Timeout time.Duration
	// Repeats measures each point this many times and keeps the fastest
	// (default 1).
	Repeats int
	// Seed drives graph generation (default 1).
	Seed int64
	// Cores and Banks describe the platform (default 16×16, one MPPA-256
	// compute cluster).
	Cores, Banks int
	// SharedBank compiles all demands onto one bank.
	SharedBank bool
	// Arbiter is the bus policy (default flat round-robin, latency 1 —
	// "the Kalray MPPA-256 RR").
	Arbiter arbiter.Arbiter
	// Jobs bounds the number of sweep points measured concurrently; values
	// ≤ 1 select the sequential path. The analysis outputs (makespan,
	// iterations, point statuses) are identical at every jobs level — only
	// wall-clock measurements, which are physical observations, vary.
	// Parallel measurement trades some timing fidelity (co-running points
	// share memory bandwidth) for sweep throughput, which is the right
	// trade for smoke sweeps and CI; use Jobs=1 when the seconds themselves
	// are the artifact.
	Jobs int

	// stopwatch, when non-nil, replaces the wall-clock timer: it is called
	// at the start of a run and returns the elapsed-seconds reader. The
	// determinism tests inject a fake so CSV/report bytes can be compared
	// across jobs levels.
	stopwatch func() func() float64
}

// startTimer begins timing one run.
func (c Config) startTimer() func() float64 {
	if c.stopwatch != nil {
		return c.stopwatch()
	}
	start := time.Now()
	return func() float64 { return time.Since(start).Seconds() }
}

// Name renders the panel name in the paper's notation (LS64, NL4, ...).
func (c Config) Name() string { return fmt.Sprintf("%s%d", c.Family, c.Fixed) }

// params builds the generator parameters for a given total size.
func (c Config) params(tasks int) (gen.Params, error) {
	if c.Fixed <= 0 || tasks%c.Fixed != 0 {
		return gen.Params{}, fmt.Errorf("bench: size %d not a multiple of fixed dimension %d", tasks, c.Fixed)
	}
	var p gen.Params
	switch c.Family {
	case "LS":
		p = gen.NewParams(tasks/c.Fixed, c.Fixed)
	case "NL":
		p = gen.NewParams(c.Fixed, tasks/c.Fixed)
	default:
		return gen.Params{}, fmt.Errorf("bench: unknown family %q (want LS or NL)", c.Family)
	}
	if c.Seed != 0 {
		p.Seed = c.Seed
	}
	if c.Cores > 0 {
		p.Cores = c.Cores
	}
	if c.Banks > 0 {
		p.Banks = c.Banks
	}
	p.SharedBank = c.SharedBank
	return p, nil
}

// Point is one measured (size, time) sample.
type Point struct {
	Tasks      int
	Seconds    float64
	TimedOut   bool
	Skipped    bool
	Makespan   model.Cycles
	Iterations int
}

// Series is one algorithm's measurements across the panel plus its
// complexity fit.
type Series struct {
	Algorithm string
	Points    []Point
	Fit       regress.Fit
	FitOK     bool
}

// Panel is a completed benchmark panel: the reproduction of one subplot of
// Figure 3.
type Panel struct {
	Config Config
	Series []Series
	// Truncated marks a panel whose sweep was canceled before every point
	// ran: the measured points are valid, the rest are Skipped, and the
	// exports carry an explicit truncation marker so a partial CSV can never
	// be mistaken for a completed sweep.
	Truncated bool
}

// RunPanelContext sweeps every algorithm over the panel's sizes with
// caller-controlled cancellation. progress, when non-nil, receives one line
// per measurement for interactive feedback. There is deliberately no
// context-free variant: a sweep can run for minutes, and a library that
// invents its own root context detaches the whole panel from the caller's
// SIGINT handling (tests pass context.Background explicitly). Canceling
// ctx aborts in-flight scheduler runs (each polls the ctx it is given) and
// stops launching further points. On cancellation the context error is
// returned together with a non-nil partial panel (Truncated set, unmeasured
// points Skipped), so callers can flush what was measured before exiting
// nonzero. Any other error returns a nil panel.
//
// When cfg.Jobs > 1 the (algorithm, size) points are measured concurrently
// on a bounded worker pool. The sweep's deterministic outputs — statuses,
// makespans, iteration counts, the skip-everything-after-a-timeout rule —
// are identical at every jobs level: points are identified by submission
// index, and the timeout-skip rule is applied as a deterministic post-pass
// over the collected points in size order rather than as scheduling-order
// side effects. Progress lines are emitted as measurements complete, so
// their interleaving (but not their count) depends on scheduling.
func RunPanelContext(ctx context.Context, cfg Config, algos []Algorithm, progress func(string)) (*Panel, error) {
	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	var sayMu sync.Mutex
	say := func(format string, args ...any) {
		if progress != nil {
			sayMu.Lock()
			progress(fmt.Sprintf(format, args...))
			sayMu.Unlock()
		}
	}

	// Generate and compile every sweep instance up front: all algorithms at
	// one size share one immutable image, and compilation (validation + SoA
	// flattening) stays outside every timed region.
	images := make(map[int]*engine.Image, len(cfg.Sizes))
	for _, size := range cfg.Sizes {
		p, err := cfg.params(size)
		if err != nil {
			return nil, err
		}
		g, err := gen.Layered(p)
		if err != nil {
			return nil, err
		}
		img, err := engine.Compile(g, sched.Options{Arbiter: cfg.Arbiter})
		if err != nil {
			return nil, err
		}
		images[size] = img
	}

	// deadBelow[a] tracks the smallest size at which algorithm a has timed
	// out so far, letting workers cheaply refuse points that the post-pass
	// would discard anyway. It is an optimization only — correctness and
	// determinism come from the post-pass below.
	deadBelow := make([]atomic.Int64, len(algos))
	for a := range deadBelow {
		deadBelow[a].Store(math.MaxInt64)
	}

	nSizes := len(cfg.Sizes)
	points, runErr := pool.Map(ctx, cfg.Jobs, len(algos)*nSizes, func(ctx context.Context, i int) (Point, error) {
		algo, size := algos[i/nSizes], cfg.Sizes[i%nSizes]
		if int64(size) > deadBelow[i/nSizes].Load() {
			say("%s %s n=%d: skipped (timed out earlier)", cfg.Name(), algo.Name, size)
			return Point{Tasks: size, Skipped: true}, nil
		}
		pt := measure(ctx, algo, images[size], cfg, repeats)
		pt.Tasks = size
		if pt.TimedOut {
			for {
				cur := deadBelow[i/nSizes].Load()
				if int64(size) >= cur || deadBelow[i/nSizes].CompareAndSwap(cur, int64(size)) {
					break
				}
			}
			say("%s %s n=%d: TIMEOUT (> %v)", cfg.Name(), algo.Name, size, cfg.Timeout)
		} else if pt.Skipped {
			say("%s %s n=%d: skipped (canceled)", cfg.Name(), algo.Name, size)
		} else {
			say("%s %s n=%d: %.4fs", cfg.Name(), algo.Name, size, pt.Seconds)
		}
		return pt, nil
	})
	// A canceled sweep still yields its completed measurements: pool.Map
	// fills results in submission order and leaves unstarted points zeroed,
	// so the panel is assembled either way and the context error is returned
	// alongside it, with Truncated set. Task errors still abort panel-less.
	canceled := runErr != nil && errors.Is(runErr, ctx.Err())
	if runErr != nil && !canceled {
		return nil, runErr
	}

	panel := &Panel{Config: cfg, Truncated: canceled}
	for a, algo := range algos {
		series := Series{Algorithm: algo.Name}
		dead := false // timed out at a smaller size: discard the rest
		for s, size := range cfg.Sizes {
			pt := points[a*nSizes+s]
			if pt.Tasks == 0 {
				// Never launched (the sweep was canceled first): a measured
				// point always carries its size.
				pt = Point{Tasks: size, Skipped: true}
			}
			if dead {
				pt = Point{Tasks: size, Skipped: true}
			} else if pt.TimedOut {
				dead = true
			}
			series.Points = append(series.Points, pt)
		}
		ns := make([]int, 0, len(series.Points))
		ts := make([]float64, 0, len(series.Points))
		for _, pt := range series.Points {
			if !pt.TimedOut && !pt.Skipped {
				ns = append(ns, pt.Tasks)
				ts = append(ts, pt.Seconds)
			}
		}
		if fit, err := regress.LogLog(ns, ts); err == nil {
			series.Fit, series.FitOK = fit, true
		}
		panel.Series = append(panel.Series, series)
	}
	return panel, runErr
}

// measure times one algorithm on one graph, best of repeats, honoring the
// timeout through the scheduler's cancellation hook. A parent-context
// cancellation (as opposed to the point's own timeout) reports the point as
// Skipped.
func measure(ctx context.Context, algo Algorithm, img *engine.Image, cfg Config, repeats int) Point {
	best := Point{Seconds: -1}
	for r := 0; r < repeats; r++ {
		pt, timedOut := runOnce(ctx, algo, img, cfg)
		if timedOut {
			if ctx.Err() != nil {
				return Point{Skipped: true}
			}
			return Point{TimedOut: true}
		}
		if best.Seconds < 0 || pt.Seconds < best.Seconds {
			best = pt
		}
	}
	return best
}

// runOnce performs a single timed run. The per-point timeout is a context
// deadline layered on the caller's context, so a timed-out run is canceled
// synchronously inside the scheduler — it cannot leak work into the next
// point's measurement — and an external cancellation tears the run down the
// same way.
func runOnce(ctx context.Context, algo Algorithm, img *engine.Image, cfg Config) (Point, bool) {
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	stop := cfg.startTimer()
	res, err := algo.Run(ctx, img)
	elapsed := stop()
	// A run is over budget when the scheduler observed the cancellation —
	// or when the deadline expired but the busy analysis loop outran the
	// timer goroutine (possible on starved single-CPU hosts): either way
	// the point must not be reported as a valid measurement.
	if errors.Is(err, sched.ErrCanceled) || ctx.Err() != nil {
		return Point{}, true
	}
	if err != nil {
		// Unschedulable graphs do not occur in the generated families;
		// still record the time the failed analysis took.
		return Point{Seconds: elapsed}, false
	}
	return Point{Seconds: elapsed, Makespan: res.Makespan, Iterations: res.Iterations}, false
}

// WriteTable renders the panel as an aligned text table with one column per
// algorithm and, when exactly two algorithms were measured, the speedup of
// the second-listed relative to the first (paper convention: old/new).
func (p *Panel) WriteTable(w io.Writer) error {
	cfg := p.Config
	arbName := "round-robin(L=1)"
	if cfg.Arbiter != nil {
		arbName = cfg.Arbiter.Name()
	}
	fmt.Fprintf(w, "# Panel %s — family %s, fixed %d, arbiter %s\n", cfg.Name(), cfg.Family, cfg.Fixed, arbName)
	fmt.Fprintf(w, "%-8s", "tasks")
	for _, s := range p.Series {
		fmt.Fprintf(w, " %14s", s.Algorithm+"(s)")
	}
	if len(p.Series) == 2 {
		fmt.Fprintf(w, " %10s", "speedup")
	}
	fmt.Fprintln(w)
	for i, size := range cfg.Sizes {
		fmt.Fprintf(w, "%-8d", size)
		var secs []float64
		for _, s := range p.Series {
			pt := s.Points[i]
			switch {
			case pt.Skipped:
				fmt.Fprintf(w, " %14s", "-")
				secs = append(secs, -1)
			case pt.TimedOut:
				fmt.Fprintf(w, " %14s", "timeout")
				secs = append(secs, -1)
			default:
				fmt.Fprintf(w, " %14.4f", pt.Seconds)
				secs = append(secs, pt.Seconds)
			}
		}
		if len(secs) == 2 && secs[0] > 0 && secs[1] > 0 {
			fmt.Fprintf(w, " %9.0fx", secs[1]/secs[0])
		}
		fmt.Fprintln(w)
	}
	for _, s := range p.Series {
		if s.FitOK {
			fmt.Fprintf(w, "fit %-12s %s\n", s.Algorithm, s.Fit)
		} else {
			fmt.Fprintf(w, "fit %-12s (not enough points)\n", s.Algorithm)
		}
	}
	if p.Truncated {
		fmt.Fprintln(w, "TRUNCATED: sweep interrupted before completion")
	}
	return nil
}

// WriteCSV exports the panel's raw measurement points as CSV
// (panel,algorithm,tasks,seconds,status), the machine-readable series
// behind each Figure 3 subplot for external plotting.
func (p *Panel) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "panel,algorithm,tasks,seconds,status"); err != nil {
		return err
	}
	for _, s := range p.Series {
		for _, pt := range s.Points {
			status := "ok"
			secs := fmt.Sprintf("%.6f", pt.Seconds)
			switch {
			case pt.Skipped:
				status, secs = "skipped", ""
			case pt.TimedOut:
				status, secs = "timeout", ""
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%s,%s\n",
				p.Config.Name(), s.Algorithm, pt.Tasks, secs, status); err != nil {
				return err
			}
		}
	}
	if p.Truncated {
		// Explicit marker: a partial export must not pass for a full sweep.
		if _, err := fmt.Fprintln(w, "# TRUNCATED: sweep interrupted before completion; skipped rows were not measured"); err != nil {
			return err
		}
	}
	return nil
}
