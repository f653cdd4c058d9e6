package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/explore/objective"
	"github.com/mia-rt/mia/internal/explore/pareto"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// paretoSearch: one client submits NSGA-II jobs by hash for the paper-scale
// 24×16 instance (graph seed 1, the instance behind
// results/pareto_paper.json) and follows each job's stream to its trailer.
// Jobs cycle through a small fixed set of search seeds, starting at an
// offset the workload seed picks, so every run does the same mix of work.
// This is the search layer — variation, order-only and structural
// evaluation, non-dominated sorting, the job table, front streaming through
// the router — which neither other workload touches.
type paretoSearch struct {
	body  []byte // instance graph JSON
	hash  string
	img   *engine.Image
	start int

	mu     sync.Mutex
	next   int
	oracle map[int64]*pareto.Result // search seed → in-process result
	wall   map[int64]time.Duration  // search seed → in-process wall time
	allocs map[int64]uint64         // search seed → mallocs during it
}

var paretoSeeds = []int64{11, 12, 13, 14}

const (
	paretoLayers, paretoWidth = 24, 16
	paretoPop, paretoGens     = 24, 10
	paretoWorkers             = 2
)

func (w *paretoSearch) generate(seed int64) error {
	body, err := layeredJSON(paretoLayers, paretoWidth, 1)
	if err != nil {
		return err
	}
	w.body = body
	g, err := readGraph(body)
	if err != nil {
		return err
	}
	if w.img, err = engine.Compile(g, sched.Options{}); err != nil {
		return err
	}
	w.hash = w.img.Fingerprint()
	w.start = int(uint64(seed) % uint64(len(paretoSeeds)))
	return nil
}

func (w *paretoSearch) prepare(f *fleet, tr *tracer) error {
	o := f.do(tr, "POST", "/v1/analyze", "application/json", w.body)
	o.kind = "register"
	if err := unaryOK(o); err != nil {
		return fmt.Errorf("pareto-search: registering the instance: %w", err)
	}
	return nil
}

func (w *paretoSearch) jobOptions(seed int64) pareto.Options {
	return pareto.Options{PopSize: paretoPop, Generations: paretoGens, Seed: seed, Jobs: paretoWorkers}
}

// jobRun is a finished served job as the client saw it.
type jobRun struct {
	seed        int64
	id          string
	create      *op
	stream      *op
	get         *op
	evaluations int
	front       string // front fingerprint of the served result
}

func (w *paretoSearch) clients() []func(*fleet, *tracer) *op {
	return []func(*fleet, *tracer) *op{func(f *fleet, tr *tracer) *op {
		w.mu.Lock()
		seed := paretoSeeds[(w.start+w.next)%len(paretoSeeds)]
		w.next++
		w.mu.Unlock()
		return w.runJob(f, tr, seed)
	}}
}

// runJob submits one job and follows its stream; the op spans create send
// to trailer. The final status GET (for the front check) is outside it.
func (w *paretoSearch) runJob(f *fleet, tr *tracer, seed int64) *op {
	body, _ := json.Marshal(map[string]any{
		"hash": w.hash, "pop_size": paretoPop, "generations": paretoGens, "seed": seed, "workers": paretoWorkers,
	})
	jr := &jobRun{seed: seed}
	o := &op{kind: "job", path: "/v1/jobs", job: jr}
	jr.create = f.do(tr, "POST", "/v1/jobs", "application/json", body)
	jr.create.kind = "job-create"
	o.start = jr.create.start
	o.end = jr.create.end
	if jr.create.err != nil || jr.create.status != 202 {
		o.err = fmt.Errorf("job create: status %d: %v %.200s", jr.create.status, jr.create.err, jr.create.body)
		return o
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(jr.create.body, &created); err != nil || created.ID == "" {
		o.err = fmt.Errorf("job create reply has no id: %.200s", jr.create.body)
		return o
	}
	jr.id = created.ID
	jr.stream = f.do(tr, "GET", "/v1/jobs/"+jr.id+"/stream", "", nil)
	jr.stream.kind = "job-stream"
	o.first, o.end = jr.stream.first, jr.stream.end
	o.status, o.body, o.bytes = jr.stream.status, jr.stream.body, jr.create.bytes+jr.stream.bytes
	o.items = bytes.Count(jr.stream.body, []byte("\n")) - 1 // front updates
	if jr.stream.err != nil {
		o.err = jr.stream.err
		return o
	}
	jr.get = f.do(tr, "GET", "/v1/jobs/"+jr.id, "", nil)
	jr.get.kind = "job-get"
	if err := unaryOK(jr.get); err != nil {
		o.err = err
		return o
	}
	var st struct {
		Status      string         `json:"status"`
		Generation  int            `json:"generation"`
		Evaluations int            `json:"evaluations"`
		Front       []pareto.Point `json:"front"`
	}
	if err := json.Unmarshal(jr.get.body, &st); err != nil {
		o.err = fmt.Errorf("job status: %w", err)
		return o
	}
	jr.evaluations = st.Evaluations
	jr.front = (&pareto.Result{
		Objectives:  objective.NamesOf(objective.Default()),
		Generations: st.Generation,
		Evaluations: st.Evaluations,
		Front:       st.Front,
	}).FrontFingerprint()
	return o
}

// validate checks the stream protocol: front-update lines, then exactly
// one trailer, last, reporting a completed job.
func (w *paretoSearch) validate(o *op) error {
	if o.err != nil {
		return o.err
	}
	if o.status != 200 {
		return fmt.Errorf("job stream: status %d", o.status)
	}
	sc := bufio.NewScanner(bytes.NewReader(o.body))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	trailers, lines := 0, 0
	for sc.Scan() {
		lines++
		var l struct {
			Done      bool   `json:"done"`
			Status    string `json:"status"`
			Truncated bool   `json:"truncated"`
			Reason    string `json:"reason"`
		}
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("job stream line %d: %w", lines, err)
		}
		if l.Done {
			trailers++
			if l.Status != "done" || l.Truncated {
				return fmt.Errorf("job ended %s (truncated=%v, %s)", l.Status, l.Truncated, l.Reason)
			}
		} else if trailers > 0 {
			return fmt.Errorf("job stream line %d after the trailer", lines)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if trailers != 1 {
		return fmt.Errorf("job stream has %d trailers, want 1", trailers)
	}
	return nil
}

// searchOracle runs (once per search seed) the in-process search a job
// with that seed must reproduce, timing it and counting its allocations.
func (w *paretoSearch) searchOracle(seed int64) (*pareto.Result, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if res, ok := w.oracle[seed]; ok {
		return res, nil
	}
	if w.oracle == nil {
		w.oracle, w.wall, w.allocs = map[int64]*pareto.Result{}, map[int64]time.Duration{}, map[int64]uint64{}
	}
	m0 := mallocs()
	t0 := time.Now()
	res, err := pareto.Search(context.Background(), w.img, w.jobOptions(seed))
	if err != nil {
		return nil, err
	}
	w.wall[seed] = time.Since(t0)
	w.allocs[seed] = mallocs() - m0
	w.oracle[seed] = res
	return res, nil
}

// check compares every job's served front with the in-process search of
// the same options; the fronts are byte-identical by the search's
// determinism contract.
func (w *paretoSearch) check(ops []*op, seed int64) (map[*op]error, error) {
	wrong := map[*op]error{}
	for _, o := range okOps(opsOf(ops, "job")) {
		res, err := w.searchOracle(o.job.seed)
		if err != nil {
			return nil, err
		}
		if want := res.FrontFingerprint(); o.job.front != want {
			wrong[o] = fmt.Errorf("job %s (seed %d) front %.16s, in-process %.16s", o.job.id, o.job.seed, o.job.front, want)
		}
	}
	return wrong, nil
}

func (w *paretoSearch) report(r *runResult) []metric {
	jobs := okOps(opsOf(r.ops, "job"))
	evals := 0
	for _, o := range jobs {
		evals += o.job.evaluations
	}
	out := []metric{latencyMetrics("job", jobs, "ms", 1)[0]}
	out[0].name, out[0].unit, out[0].value = "job_p50_s", "s", out[0].value/1000
	out = append(out, metric{name: "search_evals_per_s", value: float64(evals) / r.elapsed.Seconds(), unit: "1/s",
		note: fmt.Sprintf("%d jobs, %d evaluations", len(jobs), evals)})
	return out
}

func readGraph(body []byte) (*model.Graph, error) { return model.ReadJSON(bytes.NewReader(body)) }
