// Command benchdiff compares `go test -bench -benchmem` output against a
// committed baseline and flags regressions — the benchstat-style smoke check
// behind the CI benchmark job.
//
// Usage:
//
//	go test ./... -bench . -benchmem -benchtime 100x | benchdiff -baseline BENCH_baseline.json
//	go test ./... -bench . -benchmem | benchdiff -baseline BENCH_baseline.json -update
//
// The comparison is deliberately a *smoke* check, not a statistics suite:
// shared CI runners are noisy, so a benchmark only draws a warning when it
// regresses beyond the threshold (default 2x) — and a warning is all it
// draws. -update stamps the baseline with the machine it was measured on
// (the `cpu:` header line, the GOMAXPROCS suffix of the benchmark names
// and the Go version); comparing against a baseline stamped by another
// machine prints one warning line before anything else, because its
// timings are not comparable with this run's. benchdiff always exits 0 on
// a successful comparison, regressions included; a non-zero exit means the
// input or the baseline could not be read. Time regressions warn;
// allocation-count regressions also warn, and a benchmark whose baseline
// pins 0 allocs/op warns on ANY allocation, since allocs/op is
// deterministic and zero is the contract the scheduler's hot
// path ships with (see the AllocsPerRun guards). Custom b.ReportMetric units
// (latency quantiles such as p50-ms) are pinned and compared the same way,
// except that a metric the baseline does not pin yet compares silently — a
// benchmark may grow metrics before the baseline is refreshed. With -gha,
// warnings are emitted as GitHub Actions ::warning annotations.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// entry is one benchmark's pinned numbers. AllocsOp is a pointer so a
// baseline can omit it for benchmarks without -benchmem data. Metrics holds
// b.ReportMetric custom units (latency quantiles like "p50-ms") by unit
// name; a baseline that predates a benchmark's custom metrics simply omits
// them, and such unpinned metrics compare silently — they become pinned on
// the next -update.
type entry struct {
	NsOp     float64            `json:"ns_op"`
	AllocsOp *float64           `json:"allocs_op,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// baseline is the committed BENCH_baseline.json: benchmark name (with the
// GOMAXPROCS suffix stripped) → pinned numbers.
type baseline struct {
	// Note records how the numbers were produced, for humans regenerating
	// the file.
	Note string `json:"note,omitempty"`
	// Machine is where the numbers were measured; baselines written before
	// benchdiff stamped them have none and compare without the check.
	Machine    *machine         `json:"machine,omitempty"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

// machine identifies where a set of benchmark numbers was measured: the
// `cpu:` line of the go test header, the GOMAXPROCS suffix of the benchmark
// names (go test omits it at 1), and the Go version benchdiff runs under —
// the toolchain that built the benchmarks when one go command runs both.
type machine struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func (m machine) String() string {
	return fmt.Sprintf("cpu %q, GOMAXPROCS %d, %s", m.CPU, m.GOMAXPROCS, m.Go)
}

func main() {
	// benchdiff usually sits at the end of a pipe; SIGINT/SIGTERM abort the
	// stdin read (which otherwise blocks forever on an interactive terminal)
	// and exit nonzero instead of being ignored.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		basePath  = fs.String("baseline", "BENCH_baseline.json", "baseline JSON file")
		update    = fs.Bool("update", false, "rewrite the baseline from the measured input instead of comparing")
		threshold = fs.Float64("threshold", 2.0, "warn when measured/baseline exceeds this ratio")
		gha       = fs.Bool("gha", false, "emit GitHub Actions ::warning annotations")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *threshold <= 1 {
		return fmt.Errorf("threshold must exceed 1 (got %g)", *threshold)
	}

	// Parse on a helper goroutine so a signal can interrupt a stdin read
	// that would otherwise block forever (e.g. benchdiff run without a
	// pipe). The reader goroutine is abandoned on cancellation; the process
	// exits right after, so nothing leaks past main.
	type parsed struct {
		m    map[string]entry
		mach machine
		err  error
	}
	ch := make(chan parsed, 1)
	go func() {
		m, mach, err := parseBench(stdin)
		ch <- parsed{m, mach, err}
	}()
	var (
		measured map[string]entry
		mach     machine
	)
	select {
	case p := <-ch:
		if p.err != nil {
			return p.err
		}
		measured, mach = p.m, p.mach
	case <-ctx.Done():
		return ctx.Err()
	}
	if len(measured) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin (want `go test -bench` output)")
	}

	if *update {
		return writeBaseline(*basePath, measured, mach)
	}

	data, err := os.ReadFile(*basePath)
	if err != nil {
		return err
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", *basePath, err)
	}

	warnAs := func(title, format string, a ...any) {
		msg := fmt.Sprintf(format, a...)
		if *gha {
			fmt.Fprintf(stdout, "::warning title=%s::%s\n", title, msg)
		} else {
			fmt.Fprintf(stdout, "WARN: %s\n", msg)
		}
	}
	warn := func(format string, a ...any) { warnAs("benchmark regression", format, a...) }
	if base.Machine != nil && *base.Machine != mach {
		warnAs("benchmark machine", "baseline was measured on %s, this run on %s — timings compare across machines",
			*base.Machine, mach)
	}

	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions, drift := 0, 0
	for _, name := range names {
		m := measured[name]
		b, ok := base.Benchmarks[name]
		if !ok {
			// A measured benchmark the baseline does not pin is comparison
			// drift, not a regression — but it must be visible in CI, not a
			// stdout note nobody reads.
			warn("%s: not in baseline — no comparison possible (run -update to pin it)", name)
			drift++
			continue
		}
		// A non-positive pinned time can only come from a corrupt or
		// hand-edited baseline; dividing by it would turn every comparison
		// into ±Inf/NaN, so flag the baseline instead of the measurement.
		if b.NsOp <= 0 {
			warn("%s: baseline pins %g ns/op (non-positive) — refresh the baseline with -update", name, b.NsOp)
			drift++
		} else if m.NsOp/b.NsOp > *threshold {
			warn("%s: %.0f ns/op vs baseline %.0f ns/op (%.1fx > %.1fx threshold)",
				name, m.NsOp, b.NsOp, m.NsOp/b.NsOp, *threshold)
			regressions++
		}
		switch {
		case m.AllocsOp != nil && b.AllocsOp == nil:
			warn("%s: measured %.0f allocs/op but baseline pins no allocation data (run -update with -benchmem)",
				name, *m.AllocsOp)
			drift++
		case b.AllocsOp == nil || m.AllocsOp == nil:
			// Baseline-only allocation data (input ran without -benchmem):
			// nothing to compare.
		case *b.AllocsOp == 0 && *m.AllocsOp > 0:
			// Allocation counts are deterministic: zero is a contract,
			// not a measurement, so any alloc is a real regression.
			warn("%s: %.0f allocs/op vs baseline 0 (allocation-free contract broken)",
				name, *m.AllocsOp)
			regressions++
		case *b.AllocsOp < 0:
			warn("%s: baseline pins %g allocs/op (negative) — refresh the baseline with -update", name, *b.AllocsOp)
			drift++
		case *b.AllocsOp > 0 && *m.AllocsOp / *b.AllocsOp > *threshold:
			warn("%s: %.0f allocs/op vs baseline %.0f (%.1fx > %.1fx threshold)",
				name, *m.AllocsOp, *b.AllocsOp, *m.AllocsOp / *b.AllocsOp, *threshold)
			regressions++
		}
		// Custom metrics (b.ReportMetric units such as latency quantiles)
		// compare only where the baseline pins a positive value: a fresh
		// baseline written before a benchmark grew the metric is not drift
		// and draws no warning.
		units := make([]string, 0, len(m.Metrics))
		for unit := range m.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			pinned, ok := b.Metrics[unit]
			if !ok || pinned <= 0 {
				continue
			}
			if v := m.Metrics[unit]; v/pinned > *threshold {
				warn("%s: %.3g %s vs baseline %.3g (%.1fx > %.1fx threshold)",
					name, v, unit, pinned, v/pinned, *threshold)
				regressions++
			}
		}
	}
	switch {
	case regressions == 0 && drift == 0:
		fmt.Fprintf(stdout, "benchdiff: %d benchmarks within %.1fx of baseline\n", len(names), *threshold)
	case regressions == 0:
		fmt.Fprintf(stdout, "benchdiff: no regressions, but %d benchmark(s) could not be fully compared — see warnings above\n", drift)
	default:
		fmt.Fprintf(stdout, "benchdiff: %d possible regression(s) — warnings only, see above (noise on shared runners is expected; re-run or refresh the baseline with -update if reproducible)\n", regressions)
	}
	return nil
}

// parseBench extracts Benchmark lines from `go test -bench` output, and the
// machine they ran on. The trailing -N GOMAXPROCS suffix is stripped from
// the names so baselines transfer across machines with different core
// counts; the machine stamp records it instead.
func parseBench(r io.Reader) (map[string]entry, machine, error) {
	out := map[string]entry{}
	mach := machine{GOMAXPROCS: 1, Go: runtime.Version()}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if cpu, ok := strings.CutPrefix(sc.Text(), "cpu: "); ok {
			mach.CPU = strings.TrimSpace(cpu)
			continue
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if procs, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
				mach.GOMAXPROCS = procs
			}
		}
		var e entry
		seenNs := false
		// fields: name, iterations, then value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, mach, fmt.Errorf("line %q: bad value %q", sc.Text(), fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsOp, seenNs = v, true
			case "allocs/op":
				av := v
				e.AllocsOp = &av
			case "B/op", "MB/s":
				// Throughput and bytes-per-op track ns/op; comparing them
				// separately would only double-report the same regression.
			default:
				// Anything else is a b.ReportMetric custom unit (latency
				// quantiles, counts) — carried so baselines can pin it.
				if e.Metrics == nil {
					e.Metrics = map[string]float64{}
				}
				e.Metrics[unit] = v
			}
		}
		if !seenNs {
			return nil, mach, fmt.Errorf("line %q: no ns/op field", sc.Text())
		}
		out[name] = e
	}
	return out, mach, sc.Err()
}

// writeBaseline pins the measured numbers, stamped with the machine they
// were measured on, as the new baseline.
func writeBaseline(path string, measured map[string]entry, mach machine) error {
	b := baseline{
		Note:       "regenerate: go test ./... -bench . -benchmem | benchdiff -baseline BENCH_baseline.json -update",
		Machine:    &mach,
		Benchmarks: measured,
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
