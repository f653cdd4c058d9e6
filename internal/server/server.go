// Package server exposes the repository's interference analysis as a
// long-running HTTP/JSON service — the serving layer the ROADMAP's
// production north star asks for, and the shape used by online bandwidth
// regulation controllers that re-run interference analysis in a loop.
//
//	POST /v1/analyze     graph (JSON or binary wire format) in → schedule
//	                     (Θ, R, makespan) out; with ?register=1 the graph
//	                     is only registered and the reply is its hash
//	POST /v1/reschedule  fingerprint + order edits → schedule out, served
//	                     from a warm scheduler checkpoint when possible
//	POST /v1/batch       one graph (by value or fingerprint) + many edit
//	                     scenarios → streamed NDJSON, one result line per
//	                     scenario as it completes, truncation-marked trailer
//	GET  /healthz        liveness (503 while draining)
//	GET  /metrics        expvar counters + latency quantiles
//
// Requests pass a bounded admission queue onto a fixed pool of workers.
// Each graph is compiled once into an immutable engine.Image registered by
// canonical fingerprint (model.RawGraph.Fingerprint); every worker's warm
// analyzer for that fingerprint shares the one image, and only the
// analyzer's order overlay and checkpoints are per-worker, held in a plain
// LRU only that worker touches. Analyze, reschedule and every batch item
// run one scenario path (whatIf): a cold analyzer commits its baseline with
// one full analysis, and repeat analyses and edit reschedules replay a
// checkpointed suffix instead of re-analyzing from t=0 — the same
// warm-start reuse the design-space explorer exploits, now held across
// requests. Each analysis runs on its worker's goroutine; the workers run
// whole analyses in parallel. Warm replays are
// bit-identical to cold runs (the scheduler's differential suite pins
// this), so a client cannot observe whether its response came from a
// checkpoint: only latency and the cache counters differ.
//
// Load shedding: a full queue answers 429 with Retry-After rather than
// queuing unboundedly. Deadlines: every request carries a context deadline
// (default Config.DefaultTimeout, per-request override via ?timeout_ms=);
// expiry mid-analysis cancels the scheduler run and answers 504. Drain:
// BeginDrain rejects new work with 503 while admitted requests finish.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/httpbody"
	"github.com/mia-rt/mia/internal/pool"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
	"github.com/mia-rt/mia/internal/wire"
)

// eng is the analysis backend every request runs on: the paper's incremental
// scheduler, the only backend with warm-start state worth pooling.
var eng = engine.MustNew(engine.Incremental)

// Config parameterizes a Server. The zero value is usable: every field has
// a serving-sensible default.
type Config struct {
	// Workers is the number of warm evaluator goroutines (default: NumCPU).
	// Each worker owns WarmCacheSize warm schedulers; requests are served by
	// whichever worker picks them up.
	Workers int
	// QueueDepth bounds the admission queue (default 64). A full queue sheds
	// with 429 + Retry-After instead of queuing unboundedly.
	QueueDepth int
	// WarmCacheSize is each worker's warm-scheduler LRU capacity (default 8).
	WarmCacheSize int
	// GraphCacheSize is the shared compiled-image registry capacity (default
	// 128). Reschedule-by-fingerprint needs the compiled image of an earlier
	// analyze; eviction turns later reschedules into 404s.
	GraphCacheSize int
	// DefaultTimeout is the per-request deadline when the client does not
	// pass ?timeout_ms= (default 30s).
	DefaultTimeout time.Duration
	// RetryAfter is the fallback hint returned with 429 responses when the
	// observed drain rate cannot yet estimate one (default 1s). Once the
	// server has completion history, the hint is derived from queue depth
	// and drain rate instead — see retryAfterSeconds.
	RetryAfter time.Duration
	// MaxRequestBytes bounds request bodies (default 32 MiB).
	MaxRequestBytes int64
	// MaxJobs bounds concurrently running search jobs (default 2). Job
	// admission is separate from the unary queue: a full job table sheds
	// with 429 without touching analyze/reschedule capacity.
	MaxJobs int
	// Sched is the base option set for every analysis (arbiter, competitor
	// merging, ...). Trace is ignored: traces would race across workers.
	Sched sched.Options
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.WarmCacheSize < 1 {
		c.WarmCacheSize = 8
	}
	if c.GraphCacheSize < 1 {
		c.GraphCacheSize = 128
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 32 << 20
	}
	if c.MaxJobs < 1 {
		c.MaxJobs = 2
	}
	c.Sched.Trace = nil
	return c
}

// worker is one evaluator goroutine's private state: its warm-analyzer LRU.
type worker struct {
	cache *lru[*warmEntry]
}

// Server is the analysis service. Create with New, mount Handler on an
// http.Server, and shut down with BeginDrain followed by Close.
type Server struct {
	cfg    Config
	runner *pool.Runner[*worker]
	images *imageCache
	jobs   *jobSet
	met    *metrics
	mux    *http.ServeMux

	drainCh chan struct{} // closed by BeginDrain

	// gate, when non-nil, runs on the worker goroutine before each admitted
	// job. Tests use it to hold workers deterministically (queue-full and
	// deadline-expiry scenarios).
	gate func()
	// itemGate, when non-nil, runs on the worker goroutine before each batch
	// item. Tests use it to cancel batches deterministically mid-stream.
	itemGate func(i int)
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		workers[i] = &worker{cache: newLRU[*warmEntry](cfg.WarmCacheSize)}
	}
	s := &Server{
		cfg:     cfg,
		runner:  pool.NewRunner(workers, cfg.QueueDepth),
		images:  &imageCache{lru: newLRU[*engine.Image](cfg.GraphCacheSize)},
		jobs:    newJobSet(cfg.MaxJobs),
		mux:     http.NewServeMux(),
		drainCh: make(chan struct{}),
	}
	s.met = newMetrics(s.runner, s.images)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/reschedule", s.handleReschedule)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobCreate)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain switches the server into draining mode: every subsequent
// analyze/reschedule/healthz/job-create request answers 503 immediately,
// while requests already admitted to the queue keep running. Running search
// jobs are cancelled — their streams end with a truncated trailer whose
// reason is "draining", matching the batch path's drain semantics.
// Idempotent.
func (s *Server) BeginDrain() {
	select {
	case <-s.drainCh:
	default:
		close(s.drainCh)
		s.jobs.cancelAll("draining")
	}
}

// draining reports whether BeginDrain was called.
func (s *Server) draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// Close drains the worker pool: admission stops, every admitted job runs to
// completion, and the worker goroutines exit. It implies BeginDrain and
// blocks until the pool is idle — callers wanting a deadline on the HTTP
// side run http.Server.Shutdown first, which bounds how long handlers keep
// waiting for their replies.
func (s *Server) Close() {
	s.BeginDrain()
	s.jobs.wg.Wait() // cancelled by BeginDrain; wait for the goroutines to land
	s.runner.Drain()
}

// reply is what a worker computes for one request; the handler goroutine
// writes it, since the worker may outlive the handler on deadline expiry.
type reply struct {
	status    int
	cacheNote string // X-Mia-Cache value ("hit"/"miss"); empty = omit
	body      []byte // JSON, already serialized on the worker
}

// errBody renders the uniform JSON error shape.
func errBody(msg string) []byte {
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	return b
}

// requestCtx layers the per-request deadline onto the connection context.
// An invalid, non-positive or overflowing timeout_ms falls back to the
// default: admission control should never fail a request over a malformed
// hint.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		var ms int64
		if _, err := fmt.Sscan(v, &ms); err == nil && ms > 0 && ms <= math.MaxInt64/int64(time.Millisecond) {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// retryAfterSeconds derives a 429 Retry-After hint from the work a shed
// client is behind: with queued jobs ahead of it draining at rate jobs/sec,
// the client's turn comes in about (queued+1)/rate seconds. rate <= 0 means
// the drain rate is unknown (cold server, or no completions yet), and the
// configured fallback applies. The result is clamped to [1, 30] seconds —
// never 0 (a "retry immediately" hint under overload is an invitation to
// hammer), never an hour-long guess from one slow batch skewing the window.
func retryAfterSeconds(queued int, rate float64, fallback time.Duration) int {
	var secs float64
	if rate > 0 {
		secs = math.Ceil(float64(queued+1) / rate)
	} else {
		secs = math.Ceil(fallback.Seconds())
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return int(secs)
}

// retryAfterHint computes the live Retry-After value for a shed response.
func (s *Server) retryAfterHint() string {
	secs := retryAfterSeconds(s.runner.Queued(), s.met.drainRate(time.Now()), s.cfg.RetryAfter)
	return strconv.Itoa(secs)
}

// dispatch admits one analysis job onto the worker pool and writes its
// reply, translating queue pressure into 429, drain into 503, and deadline
// expiry into 504. job runs on a worker goroutine and must serialize its
// response before returning (worker-owned scheduler buffers are reused by
// the next job).
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, job func(ctx context.Context, wk *worker) reply) {
	start := time.Now()
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	out := make(chan reply, 1) // buffered: the worker never blocks on a gone handler
	if !s.admit(w, func(wk *worker) {
		if s.gate != nil {
			s.gate()
		}
		out <- safeJob(ctx, wk, job)
	}) {
		return
	}

	select {
	case rep := <-out:
		s.met.observeLatency(time.Since(start))
		s.met.observeCompletion(time.Now())
		s.writeReply(w, rep)
	case <-ctx.Done():
		// The job still runs (it cannot be unqueued) but will observe the
		// dead context and return cheaply; its reply lands in the buffered
		// channel and is dropped.
		s.met.observeLatency(time.Since(start))
		s.writeReply(w, timeoutReply(ctx))
	}
}

// admit is the one admission step of the worker pool, shared by unary
// requests and batches: it submits job, or writes the refusal — 503 while
// draining, 429 with a Retry-After hint when the queue is full — and
// reports false.
func (s *Server) admit(w http.ResponseWriter, job func(wk *worker)) bool {
	if s.draining() {
		s.writeReply(w, reply{status: http.StatusServiceUnavailable, body: errBody("draining")})
		return false
	}
	if s.runner.TrySubmit(job) {
		return true
	}
	s.met.shed.Add(1)
	if s.draining() {
		s.writeReply(w, reply{status: http.StatusServiceUnavailable, body: errBody("draining")})
		return false
	}
	w.Header().Set("Retry-After", s.retryAfterHint())
	s.writeReply(w, reply{status: http.StatusTooManyRequests, body: errBody("queue full")})
	return false
}

// safeJob runs job with panic containment: a panicking analysis answers 500
// for its own request instead of killing the worker goroutine and silently
// shrinking pool capacity.
func safeJob(ctx context.Context, wk *worker, job func(context.Context, *worker) reply) (rep reply) {
	defer func() {
		if r := recover(); r != nil {
			rep = reply{status: http.StatusInternalServerError, body: errBody(fmt.Sprintf("internal panic: %v", r))}
		}
	}()
	return job(ctx, wk)
}

// timeoutReply maps a dead request context to its response: 504 for an
// expired deadline, 503 for a client disconnect (the body is written for
// uniformity; a disconnected client never reads it).
func timeoutReply(ctx context.Context) reply {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return reply{status: http.StatusGatewayTimeout, body: errBody("deadline exceeded")}
	}
	return reply{status: http.StatusServiceUnavailable, body: errBody("client gone")}
}

// writeReply writes one reply and tallies it.
func (s *Server) writeReply(w http.ResponseWriter, rep reply) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if rep.cacheNote != "" {
		h.Set("X-Mia-Cache", rep.cacheNote)
	}
	w.WriteHeader(rep.status)
	w.Write(rep.body)
	s.met.countResponse(rep.status)
}

// compileBody compiles a request body into a problem image, dispatching on
// Content-Type: wire blobs take CompileFromWire, everything else
// CompileJSON. Neither builds a graph on the way. Both paths apply the body
// size cap and full validation; the ingest counters record which one
// served each graph-carrying request.
func (s *Server) compileBody(r *http.Request) (*engine.Image, error) {
	body, err := httpbody.Read(nil, r, s.cfg.MaxRequestBytes)
	if err != nil {
		return nil, err
	}
	if wire.IsContentType(r.Header.Get("Content-Type")) {
		img, err := engine.CompileFromWire(body, s.cfg.Sched)
		if err != nil {
			return nil, err
		}
		s.met.ingestWire.Add(1)
		return img, nil
	}
	img, err := engine.CompileJSON(body, s.cfg.Sched)
	if err != nil {
		return nil, err
	}
	s.met.ingestJSON.Add(1)
	return img, nil
}

// errUnknownHash answers a request naming a graph the registry does not
// hold.
const errUnknownHash = "unknown graph hash (analyze it first; the registry is an LRU and may have evicted it)"

// resolveGraph finds the image a batch or job request names — by the
// fingerprint of an earlier analyze (hash) or by value (graph JSON,
// compiled here) — or returns the reply to send instead: 400 for both,
// neither, or a bad graph, 404 for a hash the registry does not hold. The
// caller registers the image.
func (s *Server) resolveGraph(hash string, graph json.RawMessage) (*engine.Image, *reply) {
	switch {
	case hash != "" && len(graph) > 0:
		return nil, &reply{status: http.StatusBadRequest, body: errBody("set either hash or graph, not both")}
	case hash != "":
		if img, ok := s.images.get(hash); ok {
			return img, nil
		}
		return nil, &reply{status: http.StatusNotFound, body: errBody(errUnknownHash)}
	case len(graph) > 0:
		img, err := engine.CompileJSON(graph, s.cfg.Sched)
		if err != nil {
			return nil, &reply{status: http.StatusBadRequest, body: errBody(err.Error())}
		}
		s.met.ingestJSON.Add(1)
		return img, nil
	}
	return nil, &reply{status: http.StatusBadRequest, body: errBody("missing graph: set hash or graph")}
}
