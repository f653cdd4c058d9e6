// Command miasched computes the static time-triggered schedule of a task
// graph under memory interference: release dates Θ and worst-case response
// times R, per the DATE 2020 paper this repository reproduces.
//
// Usage:
//
//	miasched graph.json
//	miasched -algo fixpoint -arbiter rr -gantt 80 graph.json
//	miasched -example figure1 -gantt 72
//	miasched -example figure2 -events -partition 5
//	miasched -csv schedule.csv graph.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/plot"
	"github.com/mia-rt/mia/internal/prof"
	_ "github.com/mia-rt/mia/internal/rta" // registers the "rta" engine backend
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/fixpoint"    // registers the "fixpoint" engine backend
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
	"github.com/mia-rt/mia/internal/sens"
	"github.com/mia-rt/mia/internal/trace"
)

func main() {
	// SIGINT/SIGTERM cancel ctx, which every analysis run polls, so even a
	// pathological instance exits promptly and nonzero instead of ignoring
	// the signal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "miasched:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("miasched", flag.ContinueOnError)
	var (
		algo      = fs.String("algo", "incremental", `analysis: "incremental" (O(n²), the paper's contribution), "fixpoint" (O(n⁴) baseline) or "rta" (window-free compositional bound)`)
		arbName   = fs.String("arbiter", "rr", `bus policy: "rr", "hier-rr", "tree-rr", "wrr", "tdm", "fp" or "none"`)
		latency   = fs.Int64("latency", 1, "bank word latency in cycles")
		group     = fs.Int("group", 2, "hier-rr first-level group size")
		slots     = fs.Int("slots", 0, "tdm slots (default: core count)")
		slotLen   = fs.Int64("slotlen", 1, "tdm slot length in cycles")
		deadline  = fs.Int64("deadline", 0, "global deadline in cycles (0 = none)")
		crit      = fs.Bool("criticality", false, "print per-task WCET slack under the deadline (needs -deadline)")
		separate  = fs.Bool("separate", false, "disable same-core competitor merging (paper §II.C ablation)")
		oracle    = fs.Bool("oracle", false, "hide the arbiter's additivity, so the cached-IBUS fast path is off and the uncached reference analysis runs (differential-testing oracle)")
		gantt     = fs.Int("gantt", 0, "print an ASCII Gantt chart this many columns wide")
		svg       = fs.String("svg", "", "write a Figure 1-style SVG Gantt chart to this file")
		chrome    = fs.String("chrome", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
		csv       = fs.String("csv", "", "write the schedule as CSV to this file")
		events    = fs.Bool("events", false, "print the incremental scheduler's event trace")
		partition = fs.Int64("partition", -1, "print the Closed/Alive/Future partition at this cursor instant (Figure 2)")
		example   = fs.String("example", "", `schedule a named graph: "figure1", "figure2" or "avionics"`)
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprof   = fs.String("memprofile", "", "write a heap profile to this file (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	defer stopProf()

	var g *model.Graph
	switch {
	case *example != "":
		switch *example {
		case "figure1":
			g = gen.Figure1()
		case "figure2":
			g = gen.Figure2()
		case "avionics":
			g = gen.Avionics()
		default:
			return fmt.Errorf("unknown example %q", *example)
		}
	case fs.NArg() == 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		g, err = model.ReadJSON(f)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need exactly one graph file (or -example); see -h")
	}

	nslots := *slots
	if nslots == 0 {
		nslots = g.Cores
	}
	arb, err := arbiter.New(arbiter.Spec{
		Policy: *arbName, WordLatency: *latency, GroupSize: *group,
		Slots: nslots, SlotLength: *slotLen,
	})
	if err != nil {
		return err
	}

	opts := sched.Options{
		Arbiter:             arb,
		Deadline:            model.Cycles(*deadline),
		SeparateCompetitors: *separate,
	}
	if *oracle {
		opts.Arbiter = arbiter.NonAdditive{Inner: arb}
	}
	var rec trace.Recorder
	if *events || *partition >= 0 {
		opts.Trace = rec.Hook()
	}

	eng, err := engine.New(*algo)
	if err != nil {
		return err
	}
	if opts.Trace != nil && *algo != engine.Incremental {
		return fmt.Errorf("-events/-partition need the incremental scheduler (the baseline has no cursor)")
	}
	img, err := engine.Compile(g, opts)
	if err != nil {
		return err
	}
	res, err := eng.Analyze(ctx, img)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%s: %d tasks on %d cores, %d banks, arbiter %s\n",
		res.Algorithm, g.NumTasks(), g.Cores, g.Banks, arb.Name())
	fmt.Fprintf(stdout, "schedulable: global WCRT (makespan) = %d cycles, total interference = %d cycles, %d iterations\n",
		res.Makespan, res.TotalInterference(), res.Iterations)
	if *gantt > 0 {
		fmt.Fprint(stdout, sched.Gantt(g, res, *gantt))
	}
	if *events {
		if err := rec.WriteText(stdout); err != nil {
			return err
		}
	}
	if *partition >= 0 {
		p := rec.PartitionAt(g, model.Cycles(*partition))
		fmt.Fprintln(stdout, p.String())
	}
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteScheduleCSV(f, g, res); err != nil {
			return err
		}
	}
	if *svg != "" {
		f, err := os.Create(*svg)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := plot.GanttSVG(f, g, res, 900); err != nil {
			return err
		}
	}
	if *crit {
		if *deadline <= 0 {
			return fmt.Errorf("-criticality needs -deadline")
		}
		slacks, err := sens.Criticality(ctx, g, opts, model.Cycles(*deadline))
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "per-task WCET slack (0 = critical):")
		for _, s := range slacks {
			fmt.Fprintf(stdout, "  %-12s %8d cycles\n", g.Name(s.Task), s.Slack)
		}
	}
	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteChromeTrace(f, g, res); err != nil {
			return err
		}
	}
	// Explicit stop (the defer is then a no-op) so profile-write errors
	// surface instead of vanishing in the deferred call.
	return stopProf()
}
