// Command perfbench is the repository's end-to-end benchmark. In one process
// it boots the serving fleet on loopback — a shard.Router in front of two
// single-worker server.Server shards — drives one workload through the
// router's public HTTP surface with closed-loop clients, checks every reply
// against in-process oracles, and prints each metric with its unit. The
// last stdout line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced and a traced half, every fleet node's
// Handler is wrapped in a timing span, and the metrics are the per-layer
// attribution (see README.md). Build and run from the repository root:
//
//	bash perfbench/run.sh --workload whatif-mixed --seed 3 --seconds 25 --trace 0
//
// --compare A B compares two saved outputs, refusing (with a warning) when
// they come from different machine shapes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "cold-ingest":
		return &coldIngest{}, nil
	case "whatif-mixed":
		return &whatIfMixed{}, nil
	case "pareto-search":
		return &paretoSearch{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-ingest, whatif-mixed or pareto-search)", name)
}

// A measured run boots and prepares a fleet at least minSetupRounds times,
// and more (up to maxSetupRounds) until minSetupTime has been spent;
// setup_s is the median, and the last fleet serves the traffic.
const (
	minSetupRounds, maxSetupRounds = 3, 15
	minSetupTime                   = 1500 * time.Millisecond
)

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "cold-ingest, whatif-mixed or pareto-search")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Int("seconds", 25, "measured traffic window")
		trace   = fs.Int("trace", 0, "1: report per-layer attribution from a traced run instead of end-to-end metrics")
		compare = fs.Bool("compare", false, "compare two saved outputs given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("--compare needs two saved outputs")
		}
		return compareOutputs(fs.Arg(0), fs.Arg(1), stdout)
	}
	w, err := newWorkload(*name)
	if err != nil {
		return 2, err
	}
	if *seconds < 1 {
		return 2, fmt.Errorf("--seconds must be at least 1")
	}
	st, err := machineStamp(*name, *seed)
	if err != nil {
		return 1, err
	}
	if err := w.generate(*seed); err != nil {
		return 1, fmt.Errorf("generating inputs: %w", err)
	}
	window := time.Duration(*seconds) * time.Second

	var res *result
	if *trace == 1 {
		res, err = tracedRun(w, *name, *seed, window)
	} else {
		res, err = measuredRun(w, *seed, window)
	}
	if err != nil {
		return 1, err
	}
	for _, m := range res.metrics {
		printMetric(stdout, *name, m)
	}
	for k, v := range res.json {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return 1, fmt.Errorf("metric %s has no value", k)
		}
	}
	for _, e := range res.errors {
		fmt.Fprintln(stdout, "failure:", e)
	}
	stamp, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "stamp %s\n", stamp)
	out := map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.json,
	}
	b, err := json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if res.failed > 0 {
		return 1, fmt.Errorf("%d of %d operations failed their checks", res.failed, res.attempted)
	}
	return 0, nil
}

// result is what one invocation prints.
type result struct {
	metrics   []metric              // every metric, in print order
	json      map[string]jsonMetric // the final line's metrics
	attempted int
	failed    int
	errors    []string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetric(w io.Writer, workload string, m metric) {
	v := "n/a"
	if !math.IsNaN(m.value) {
		v = fmt.Sprintf("%.6g", m.value)
	}
	if m.note != "" {
		fmt.Fprintf(w, "metric %-13s %-28s %12s %-6s (%s)\n", workload, m.name, v, m.unit, m.note)
		return
	}
	fmt.Fprintf(w, "metric %-13s %-28s %12s %s\n", workload, m.name, v, m.unit)
}

// pass is one booted-and-driven fleet: setup times, the traffic window,
// fleet counter deltas and runtime statistics over the window.
type pass struct {
	run      *runResult
	counters fleetCounters
	rt       runtimeDelta
	spans    []span
	peakRSS  float64
	setup    []time.Duration // each boot-and-prepare round
}

// onePass boots fleets as the round limits say (keeping the last), drives
// the workload for d, runs after (when set) on the still-open fleet, and
// closes the fleet.
func onePass(w workload, tr *tracer, minRounds, maxRounds int, d time.Duration, after func(*fleet) error) (*pass, error) {
	var f *fleet
	var setups []time.Duration
	var spent time.Duration
	for i := 0; i < maxRounds && (i < minRounds || spent < minSetupTime); i++ {
		if f != nil {
			f.close()
		}
		tr.reset() // only the serving fleet's set-up is attributed
		t0 := time.Now()
		var err error
		if f, err = bootFleet(tr); err != nil {
			return nil, err
		}
		if err := w.prepare(f, tr); err != nil {
			f.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		spent += setups[i]
	}
	defer f.close()
	c0, err := f.counters()
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	r := drive(w, f, tr, d)
	p := &pass{run: r, rt: readRuntime().sub(rt0), peakRSS: peakRSSMB(), setup: setups}
	c1, err := f.counters()
	if err != nil {
		return nil, err
	}
	p.counters = c1.sub(c0)
	if after != nil {
		if err := after(f); err != nil {
			return nil, err
		}
	}
	if tr.on {
		p.spans = tr.snapshot()
	}
	return p, nil
}

// measuredRun is the untraced run: end-to-end metrics only.
func measuredRun(w workload, seed int64, d time.Duration) (*result, error) {
	p, err := onePass(w, newTracer(false), minSetupRounds, maxSetupRounds, d, nil)
	if err != nil {
		return nil, err
	}
	res, err := verify(w, p.run.ops, seed)
	if err != nil {
		return nil, err
	}
	ms := w.report(p.run)
	setup := make([]float64, len(p.setup))
	for i, s := range p.setup {
		setup[i] = s.Seconds()
	}
	ms = append(ms,
		metric{name: "setup_s", value: median(setup), unit: "s", note: fmt.Sprintf("median of %d boots", len(setup))},
		metric{name: "failed_frac", value: float64(res.failed) / float64(res.attempted), unit: "1",
			note: fmt.Sprintf("%d of %d", res.failed, res.attempted)},
		metric{name: "peak_rss_mb", value: p.peakRSS, unit: "MB", note: "ru_maxrss"},
	)
	res.metrics = ms
	res.json = endToEnd(ms)
	return res, nil
}

// endToEnd maps each workload's named metrics onto the benchmark's
// workload-independent end-to-end keys (BENCHMARK.json): the primary
// operation's median latency, the workload's work rate, set-up time and
// peak memory. whatif-mixed's primary latency is the batch's: a unary
// request may or may not land behind the other client's 32-item batch, so
// its median sits near the boundary of two modes and jumps between runs.
func endToEnd(ms []metric) map[string]jsonMetric {
	primary := map[string]string{
		"analyze_p50_ms": "p50_ms", "batch_p50_ms": "p50_ms", "job_p50_s": "p50_ms",
		"analyze_tasks_per_s": "work_per_s", "batch_items_per_s": "work_per_s", "search_evals_per_s": "work_per_s",
		"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb",
	}
	out := map[string]jsonMetric{}
	for _, m := range ms {
		key, ok := primary[m.name]
		if !ok {
			continue
		}
		v, unit := m.value, m.unit
		if m.name == "job_p50_s" {
			v, unit = v*1000, "ms"
		}
		out[key] = jsonMetric{Value: v, Unit: unit}
	}
	return out
}

// verify runs every op's protocol validation and the sampled oracle
// checks; an op failing either counts once.
func verify(w workload, ops []*op, seed int64) (*result, error) {
	res := &result{attempted: len(ops)}
	for _, o := range ops {
		if err := w.validate(o); err != nil {
			o.failed = true
			res.errors = append(res.errors, fmt.Sprintf("%s: %v", o.kind, err))
		}
	}
	wrong, err := w.check(ops, seed)
	if err != nil {
		return nil, fmt.Errorf("checking outputs: %w", err)
	}
	keys := make([]*op, 0, len(wrong))
	for o := range wrong {
		keys = append(keys, o)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].start < keys[j].start })
	for _, o := range keys {
		if !o.failed {
			o.failed = true
			res.errors = append(res.errors, fmt.Sprintf("%s: wrong reply: %v", o.kind, wrong[o]))
		}
	}
	for _, o := range ops {
		if o.failed {
			res.failed++
		}
	}
	if len(res.errors) > 10 {
		res.errors = append(res.errors[:10], fmt.Sprintf("... %d more", len(res.errors)-10))
	}
	return res, nil
}

// spanPath is where a traced run writes its spans: inside the checkout's
// build directory.
func spanPath(workload string, seed int64) string {
	return filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
}
