package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// workload is one traffic mix. A run generates the inputs from the seed
// (untimed), boots and prepares the fleet (timed as setup_s), drives the
// closed-loop clients until the deadline, then checks the outputs against
// in-process oracles (untimed).
type workload interface {
	// generate builds every input from seed. The program never sees the
	// seed, only what generate produced.
	generate(seed int64) error
	// prepare brings a freshly booted fleet to the workload's starting
	// state: the graph registrations setup_s includes.
	prepare(f *fleet, tr *tracer) error
	// clients returns one closed-loop body per client connection. Each
	// call performs one operation (which may be several HTTP requests).
	clients() []func(f *fleet, tr *tracer) *op
	// validate checks one finished op's protocol invariants (status,
	// stream completeness); it runs for every op, outside the timed path.
	validate(o *op) error
	// check compares a seeded sample of replies with in-process oracles
	// and returns the ops whose replies were wrong.
	check(ops []*op, seed int64) (wrong map[*op]error, err error)
	// report turns the run's ops into the workload's named end-to-end
	// metrics.
	report(r *runResult) []metric
}

// metric is one named, unit-tagged measurement.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count or provenance, printed next to the value
}

// runResult is one measured traffic window.
type runResult struct {
	ops     []*op
	elapsed time.Duration // first send to last reply
}

// drive runs every client in its own goroutine until deadline; a client
// finishes the op it is in when the deadline passes. Ops come back in
// client order, each client's in issue order.
func drive(w workload, f *fleet, tr *tracer, d time.Duration) *runResult {
	cs := w.clients()
	per := make([][]*op, len(cs))
	start := tr.now()
	deadline := start + d
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c func(*fleet, *tracer) *op) {
			defer wg.Done()
			for tr.now() < deadline {
				per[i] = append(per[i], c(f, tr))
			}
		}(i, c)
	}
	wg.Wait()
	r := &runResult{elapsed: tr.now() - start}
	for _, ops := range per {
		r.ops = append(r.ops, ops...)
	}
	return r
}

// opsOf returns the ops of one kind.
func opsOf(ops []*op, kind string) []*op {
	var out []*op
	for _, o := range ops {
		if o.kind == kind {
			out = append(out, o)
		}
	}
	return out
}

// latencies returns the sorted latencies of ops in milliseconds.
func latencies(ops []*op) []float64 {
	v := make([]float64, len(ops))
	for i, o := range ops {
		v[i] = ms(o.latency())
	}
	sort.Float64s(v)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencyMetrics reports a median and, when at least ten samples lie
// beyond it, the p99 (the highest percentile that has them otherwise is
// named in the note).
func latencyMetrics(prefix string, ops []*op, unit string, scale float64) []metric {
	l := latencies(ops)
	n := len(l)
	out := []metric{{name: prefix + "_p50_" + unit, value: quantile(l, 0.5) * scale, unit: unit, note: fmt.Sprintf("n=%d", n)}}
	if float64(n)*0.01 >= 10 {
		out = append(out, metric{name: prefix + "_p99_" + unit, value: quantile(l, 0.99) * scale, unit: unit, note: fmt.Sprintf("n=%d", n)})
	} else if n >= 20 {
		q := 1 - 10/float64(n)
		out = append(out, metric{name: prefix + "_p99_" + unit, value: math.NaN(), unit: unit,
			note: fmt.Sprintf("n=%d too few for p99; p%.0f=%.4g", n, q*100, quantile(l, q)*scale)})
	}
	return out
}
