package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sim"
)

// coldIngest: two clients, each POSTing a 384-task LS64 graph (6 layers of
// 64 tasks on 16 cores) as JSON that no cache has seen, with no placement
// hint. Every request takes the whole cold path: router fingerprinting
// (a JSON decode), shard decode, compile, cold kernel, reply encode, and
// the router's synchronous replication to the successor (a third decode).
//
// Generating a fresh 10k-edge graph per request would put the generator's
// CPU on the measured box. Instead eight seeded base graphs are encoded
// once, and request j patches the WCETs of two tasks of base j mod 8 in
// place: every body has a fresh fingerprint, and the decode, compile and
// analysis work is that of a full random instance.
type coldIngest struct {
	bases   [][]byte
	patches [][2]int // offsets of the two patched WCET digit triples
	prime   []byte   // setup's readiness request
	next    atomic.Int64
}

const (
	coldLayers, coldWidth = 6, 64
	coldBases             = 8
)

func (w *coldIngest) generate(seed int64) error {
	for b := 0; b < coldBases; b++ {
		body, err := layeredJSON(coldLayers, coldWidth, seed*1_000_003+int64(b))
		if err != nil {
			return err
		}
		var offs [2]int
		from := 0
		for i := range offs {
			at := bytes.Index(body[from:], []byte(`"wcet": `))
			if at < 0 {
				return fmt.Errorf("cold-ingest: base %d has no WCET field to patch", b)
			}
			offs[i] = from + at + len(`"wcet": `)
			from = offs[i]
		}
		w.bases = append(w.bases, body)
		w.patches = append(w.patches, offs)
	}
	var err error
	w.prime, err = layeredJSON(coldLayers, coldWidth, -seed-1)
	return err
}

// layeredJSON encodes one paper-parameter layered graph the way the repo's
// tools do (model.Graph.WriteJSON).
func layeredJSON(layers, width int, seed int64) ([]byte, error) {
	p := gen.NewParams(layers, width)
	p.Seed = seed
	g, err := gen.Layered(p)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// body returns request j's graph: base j mod 8 with two task WCETs
// rewritten to 550 + the two base-101 digits of j/8, staying inside the
// generator's [550, 650] range and its three-digit width.
func (w *coldIngest) body(j int) []byte {
	b := j % len(w.bases)
	out := append([]byte(nil), w.bases[b]...)
	k := j / len(w.bases)
	for _, off := range w.patches[b] {
		v := 550 + k%101
		k /= 101
		out[off], out[off+1], out[off+2] = byte('0'+v/100), byte('0'+v/10%10), byte('0'+v%10)
	}
	return out
}

func (w *coldIngest) prepare(f *fleet, tr *tracer) error {
	o := f.do(tr, "POST", "/v1/analyze", "application/json", w.prime)
	if o.err != nil || o.status != 200 {
		return fmt.Errorf("cold-ingest: readiness analyze: status %d, %v", o.status, o.err)
	}
	return nil
}

func (w *coldIngest) clients() []func(*fleet, *tracer) *op {
	c := func(f *fleet, tr *tracer) *op {
		j := int(w.next.Add(1) - 1)
		o := f.do(tr, "POST", "/v1/analyze", "application/json", w.body(j))
		o.kind, o.ref = "analyze", j
		return o
	}
	return []func(*fleet, *tracer) *op{c, c}
}

func (w *coldIngest) validate(o *op) error { return unaryOK(o) }

func unaryOK(o *op) error {
	switch {
	case o.err != nil:
		return o.err
	case o.status != 200:
		return fmt.Errorf("%s: status %d: %.200s", o.path, o.status, o.body)
	}
	return nil
}

// check compares a seeded sample of replies with a cold in-process
// analysis of the same body, and runs a few of the sampled graphs through
// the cycle-level simulator under the served release dates: no simulated
// task may finish after its served release + response bound.
func (w *coldIngest) check(ops []*op, seed int64) (map[*op]error, error) {
	wrong := map[*op]error{}
	sample := sampleOps(okOps(opsOf(ops, "analyze")), 40, seed)
	for i, o := range sample {
		g, err := model.ReadJSON(bytes.NewReader(w.body(o.ref)))
		if err != nil {
			return nil, err
		}
		want, err := oracleReply(g)
		if err != nil {
			return nil, err
		}
		got, err := parseSchedule(o.body)
		if err == nil {
			err = sameSchedule(got, want)
		}
		if err == nil && i < 4 {
			err = simSound(g, got, seed+int64(i))
		}
		if err != nil {
			wrong[o] = err
		}
	}
	return wrong, nil
}

// simSound simulates g at the served release dates with every access
// pattern and checks the served bounds hold.
func simSound(g *model.Graph, got *scheduleReply, seed int64) error {
	for _, pat := range []sim.Pattern{sim.Front, sim.Spread, sim.Shuffled} {
		out, err := sim.Run(g, got.Release, sim.Config{Pattern: pat, Seed: seed})
		if err != nil {
			return fmt.Errorf("simulating the served schedule: %w", err)
		}
		for i, fin := range out.Finish {
			if bound := got.Release[i] + got.Response[i]; fin > bound {
				return fmt.Errorf("task %d simulated (%v) finishing at %d after its served bound %d", i, pat, fin, bound)
			}
		}
	}
	return nil
}

func (w *coldIngest) report(r *runResult) []metric {
	an := okOps(opsOf(r.ops, "analyze"))
	out := latencyMetrics("analyze", an, "ms", 1)
	tasks := float64(len(an) * coldLayers * coldWidth)
	out = append(out, metric{name: "analyze_tasks_per_s", value: tasks / r.elapsed.Seconds(), unit: "1/s",
		note: fmt.Sprintf("%d graphs of %d tasks", len(an), coldLayers*coldWidth)})
	return out
}

// okOps drops failed ops so a failure cannot masquerade as a fast reply.
func okOps(ops []*op) []*op {
	var out []*op
	for _, o := range ops {
		if !o.failed {
			out = append(out, o)
		}
	}
	return out
}

// sampleOps draws up to n ops, seeded, without replacement.
func sampleOps(ops []*op, n int, seed int64) []*op {
	if len(ops) <= n {
		return ops
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(ops))[:n]
	out := make([]*op, n)
	for i, k := range idx {
		out[i] = ops[k]
	}
	return out
}
