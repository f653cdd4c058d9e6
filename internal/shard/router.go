package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mia-rt/mia/internal/httpbody"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/ndjson"
	"github.com/mia-rt/mia/internal/wire"
)

// Router fronts a fleet of miaserve shards. It speaks the shards' own
// protocol on the client side — POST /v1/analyze, /v1/reschedule,
// /v1/batch (JSON or wire bodies), GET /healthz, /metrics — and places
// every request on the ring by its graph fingerprint, so each graph's warm
// engine image, analyzer checkpoints, and batch memo stay resident on the
// shard (and successor) that its traffic keeps landing on.
//
// Every request takes the same ring walk (walk): the fingerprint's
// candidate shards in bounded-load order, one attempt each. Failure
// handling, in escalating order:
//
//   - Transient failures (connection errors, 502/503 from a dying or
//     draining shard) retry on the next candidate after a jittered backoff,
//     and passively mark the failed shard down until a health probe clears
//     it.
//   - Analyze bodies are replicated: after the serving shard answers 200,
//     the same body is re-posted best-effort to the next ring replica with
//     ?register=1, which compiles and registers the image without analyzing
//     it, so every registered image is pinned on its primary plus one
//     successor and a by-hash request surviving a primary death still
//     resolves.
//   - A shard dying mid-batch fails over: the router re-admits exactly the
//     items whose result lines it has not yet streamed to the client, maps
//     the successor's line indices back to the original item indices, and
//     emits exactly one trailer for the whole batch — no result line is
//     duplicated (lines already streamed are never re-admitted) and none
//     is lost (un-streamed items are re-evaluated; shard results are
//     bit-identical, so a re-evaluated line equals the one that died in
//     the socket).
//   - A shard dying mid-job-stream ends the stream with a failed,
//     truncated trailer: a job lives on one shard, so there is nothing to
//     fail over to, but the stream still ends with exactly one trailer.
//
// Streams are relayed line by line (package ndjson): a line the shard cut
// in half never reaches the client.
//
// Non-transient shard verdicts (400, 422, 429) pass through verbatim: they
// are statements about the request or about admission control, and retrying
// them elsewhere would either waste work or amplify an overload. A 404 is
// the one placement-dependent verdict — bounded-load reordering can put a
// shard outside the fingerprint's replica set first, and that shard
// legitimately lacks the image — so a 404 continues the ring walk and is
// replayed to the client only when every candidate returned it.
type Router struct {
	cfg    Config
	ring   *Ring
	client *http.Client
	// batchClient has no overall timeout: a batch response streams for as
	// long as the shard produces lines, so only the response-header wait is
	// bounded (stalled shards are detected by the stream dying, not by a
	// wall clock on legitimate long streams).
	batchClient *http.Client
	mux         *http.ServeMux
	targets     map[string]*target
	met         routerMetrics

	rngMu sync.Mutex
	rng   *rand.Rand

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Config parameterizes a Router. Targets is required; everything else has
// serving-sensible defaults.
type Config struct {
	// Targets are the shard base URLs (e.g. "http://10.0.0.1:8080"). The
	// ring is built over this set; order does not matter.
	Targets []string
	// Replicas is each fingerprint's replica-set size: the primary plus
	// Replicas-1 successors that hold its image (default 2 — primary + one
	// successor, the replication policy's pin width).
	Replicas int
	// Retries bounds how many replica attempts one request makes (default:
	// Replicas; clamped to the fleet size).
	Retries int
	// Backoff is the base delay between replica attempts; each attempt
	// sleeps a uniformly jittered [Backoff/2, Backoff) so synchronized
	// failures do not produce synchronized retries (default 25ms).
	Backoff time.Duration
	// HealthEvery is the active health-probe interval. Zero disables the
	// background prober: health is then purely passive (errors mark a shard
	// down, CheckHealth marks it back up). Tests use zero for determinism.
	HealthEvery time.Duration
	// Timeout is the per-attempt client timeout for unary requests and the
	// response-header timeout for batches (default 30s). Batch bodies
	// stream for as long as the shard keeps producing lines.
	Timeout time.Duration
	// MaxRequestBytes bounds request bodies read for routing (default 32
	// MiB, the shard-side cap).
	MaxRequestBytes int64
}

func (c Config) withDefaults() Config {
	if c.Replicas < 1 {
		c.Replicas = 2
	}
	if c.Replicas > len(c.Targets) {
		c.Replicas = len(c.Targets)
	}
	if c.Retries < 1 {
		c.Retries = c.Replicas
	}
	if c.Retries > len(c.Targets) {
		c.Retries = len(c.Targets)
	}
	if c.Backoff <= 0 {
		c.Backoff = 25 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 32 << 20
	}
	return c
}

// loadFactor is the bounded-load factor c: a shard already carrying more
// than c times the mean in-flight load is deprioritized (not excluded) in
// the ring walk.
const loadFactor = 1.25

// target is one shard's live state: health flag and in-flight counter (the
// bounded-load signal).
type target struct {
	url      string
	healthy  atomic.Bool
	inflight atomic.Int64
}

// routerMetrics are the router's own counters, exposed on /metrics: the
// expvar.Ints of one private expvar.Map, vars, beside the per-target state
// read at scrape time. Nothing is published to expvar's process-wide
// registry.
type routerMetrics struct {
	vars           expvar.Map
	forwarded      expvar.Int // requests forwarded to a shard (attempts)
	retries        expvar.Int // replica retries after a transient failure
	replications   expvar.Int // successful analyze-body replications
	batchFailovers expvar.Int // batches continued on a successor mid-stream
	linesStreamed  expvar.Int // batch result lines forwarded to clients
	shed           expvar.Int // 429/503 verdicts passed through
	noShard        expvar.Int // requests that exhausted every replica
}

// NewRouter builds a router over cfg.Targets and, when cfg.HealthEvery > 0,
// starts its background health prober (joined by Close). ctx bounds the
// prober's probes; canceling it is equivalent to Close for the background
// work.
func NewRouter(ctx context.Context, cfg Config) (*Router, error) {
	if len(cfg.Targets) == 0 {
		return nil, errors.New("shard: router needs at least one target")
	}
	cfg = cfg.withDefaults()
	rctx, cancel := context.WithCancel(ctx)
	r := &Router{
		cfg:    cfg,
		ring:   NewRing(cfg.Targets, DefaultVnodes),
		client: &http.Client{Timeout: cfg.Timeout},
		batchClient: &http.Client{Transport: &http.Transport{
			ResponseHeaderTimeout: cfg.Timeout,
		}},
		mux:     http.NewServeMux(),
		targets: make(map[string]*target, len(cfg.Targets)),
		//mialint:ignore determinism -- retry-backoff jitter only: the seed decorrelates concurrent routers and never touches routing or results
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
		ctx:    rctx,
		cancel: cancel,
	}
	for _, m := range r.ring.Members() {
		t := &target{url: m}
		t.healthy.Store(true) // optimistic: first error or probe corrects it
		r.targets[m] = t
	}
	m := &r.met
	m.vars.Set("forwarded", &m.forwarded)
	m.vars.Set("retries", &m.retries)
	m.vars.Set("replications", &m.replications)
	m.vars.Set("batch_failovers", &m.batchFailovers)
	m.vars.Set("lines_streamed", &m.linesStreamed)
	m.vars.Set("shed", &m.shed)
	m.vars.Set("no_shard", &m.noShard)
	m.vars.Set("targets", expvar.Func(r.targetStates))
	r.mux.HandleFunc("POST /v1/analyze", r.handleUnary)
	r.mux.HandleFunc("POST /v1/reschedule", r.handleUnary)
	r.mux.HandleFunc("POST /v1/batch", r.handleBatch)
	r.mux.HandleFunc("POST /v1/jobs", r.handleUnary)
	r.mux.HandleFunc("GET /v1/jobs/{id}", r.handleJobByID)
	r.mux.HandleFunc("GET /v1/jobs/{id}/stream", r.handleJobByID)
	r.mux.HandleFunc("DELETE /v1/jobs/{id}", r.handleJobByID)
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /metrics", r.handleMetrics)
	if cfg.HealthEvery > 0 {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			ticker := time.NewTicker(cfg.HealthEvery)
			defer ticker.Stop()
			for {
				select {
				case <-rctx.Done():
					return
				case <-ticker.C:
					r.CheckHealth(rctx)
				}
			}
		}()
	}
	return r, nil
}

// Handler returns the router's HTTP handler.
func (r *Router) Handler() http.Handler { return r.mux }

// Close stops the background health prober and waits for it to exit.
func (r *Router) Close() {
	r.cancel()
	r.wg.Wait()
}

// CheckHealth probes every shard's /healthz once and updates the health
// flags: 200 marks a shard up (recovering it from a passive down-mark),
// anything else — including a 503 drain — marks it down.
func (r *Router) CheckHealth(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range r.ring.Members() {
		t := r.targets[m]
		wg.Add(1)
		go func(t *target) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.url+"/healthz", nil)
			if err != nil {
				t.healthy.Store(false)
				return
			}
			resp, err := r.client.Do(req)
			if err != nil {
				t.healthy.Store(false)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			t.healthy.Store(resp.StatusCode == http.StatusOK)
		}(t)
	}
	wg.Wait()
}

// candidates returns the fingerprint's replica attempt order: the first
// cfg.Retries members of the bounded-load ring walk, healthy and
// under-loaded shards first. The walk never returns an empty list — with
// the whole fleet marked down the ring order itself is the attempt order,
// and the requests fail over naturally when the attempts do.
func (r *Router) candidates(fp string) []string {
	total := 0
	for _, m := range r.ring.Members() {
		total += int(r.targets[m].inflight.Load())
	}
	ord := r.ring.OrderBounded(fp, func(m string) bool {
		t := r.targets[m]
		return t.healthy.Load() && WithinBound(int(t.inflight.Load()), total, len(r.targets), loadFactor)
	})
	if len(ord) > r.cfg.Retries {
		ord = ord[:r.cfg.Retries]
	}
	return ord
}

// backoff sleeps the jittered inter-attempt delay and reports whether ctx
// outlived it, bailing early when ctx dies.
func (r *Router) backoff(ctx context.Context) bool {
	r.rngMu.Lock()
	d := r.cfg.Backoff/2 + time.Duration(r.rng.Int63n(int64(r.cfg.Backoff/2)+1))
	r.rngMu.Unlock()
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// markDown passively marks a shard down after a transport-level failure; a
// later health probe (or CheckHealth call) brings it back.
func (r *Router) markDown(url string) {
	if t, ok := r.targets[url]; ok {
		t.healthy.Store(false)
	}
}

// transientStatus reports whether a shard response status is worth retrying
// on another replica: only 502/503 — a dying or draining shard. 429 is
// admission control doing its job (the client owns the retry, guided by
// Retry-After), and 4xx/422 are verdicts about the request itself.
func transientStatus(status int) bool {
	return status == http.StatusBadGateway || status == http.StatusServiceUnavailable
}

// errJSON writes the shard protocol's uniform error body.
func errJSON(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	w.Write(b)
}

// routeFingerprint derives the placement key for a unary request body.
// Precedence: the client's RouteHeader hint, then the body itself (wire
// blob, graph JSON, or the hash field). A body no fingerprint can be
// derived from routes by its raw bytes — deterministic, and the shard will
// reject it with the proper error.
func (r *Router) routeFingerprint(req *http.Request, body []byte) string {
	fp := req.Header.Get(wire.RouteHeader)
	switch {
	case fp != "":
	case wire.IsContentType(req.Header.Get("Content-Type")):
		fp, _ = wire.BlobFingerprint(body)
	case req.URL.Path == "/v1/analyze":
		fp = graphFingerprint(body)
	default:
		var ref struct {
			Hash  string          `json:"hash"`
			Graph json.RawMessage `json:"graph"`
		}
		if json.Unmarshal(body, &ref) == nil {
			fp = refFingerprint(ref.Hash, ref.Graph)
		}
	}
	if fp == "" {
		fp = string(body)
	}
	return fp
}

// refFingerprint is the placement key of a body that names its graph by
// hash or carries it as JSON, "" when neither yields one.
func refFingerprint(hash string, graph []byte) string {
	if hash != "" {
		return hash
	}
	return graphFingerprint(graph)
}

// graphFingerprint returns the canonical fingerprint of a graph JSON
// document — the hash the shard will report for it — or "" when the
// document is not a valid graph, which the shard then rejects itself. It
// decodes into the flat form only; the request still forwards the client's
// bytes verbatim.
func graphFingerprint(data []byte) string {
	raw, err := model.DecodeJSON(data)
	if err != nil {
		return ""
	}
	return raw.Fingerprint()
}

// forward issues one attempt of the client's request to one shard: same
// method, uri (the client's own path and query, except for replication),
// with body as the payload. The in-flight counter brackets only the attempt
// itself, not the body read — it is the admission-pressure signal for
// bounded-load placement, and a long stream is backpressure the shard
// already accounts for in its own queue.
func (r *Router) forward(client *http.Client, url string, in *http.Request, uri, contentType string, body []byte) (*http.Response, error) {
	t := r.targets[url]
	t.inflight.Add(1)
	defer t.inflight.Add(-1)
	req, err := http.NewRequestWithContext(in.Context(), in.Method, url+uri, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	r.met.forwarded.Add(1)
	return client.Do(req)
}

// unanswered is a ring walk no shard finished: the last failure, and the
// last 404 (its body, up to 64 KiB, and Content-Type) to replay when a
// shard gave one.
type unanswered struct {
	err         error
	notFound    bool
	body        []byte
	contentType string
}

// walk is the router's one ring walk. It sends a request to cands in order
// until a shard finishes it. Between attempts it counts a retry and sleeps
// the jittered backoff, and it stops once the client is gone. A connection
// error marks the shard down; a 502 or 503 moves on to the next shard, and
// so does a 404, which is kept: bounded-load reordering can try a shard
// outside the fingerprint's replica set first, and that shard never got
// the image. Every other response goes to answer, which reports whether
// the request is finished. walk returns nil once it is.
func (r *Router) walk(ctx context.Context, cands []string, send func(url string) (*http.Response, error), answer func(url string, resp *http.Response) bool) *unanswered {
	u := &unanswered{}
	for i, url := range cands {
		if i > 0 {
			if ctx.Err() != nil {
				break
			}
			r.met.retries.Add(1)
			if !r.backoff(ctx) {
				break
			}
		}
		resp, err := send(url)
		if err != nil {
			if ctx.Err() == nil {
				r.markDown(url) // shard failure, not our client going away
			}
			u.err = err
			continue
		}
		switch {
		case transientStatus(resp.StatusCode):
			io.Copy(io.Discard, resp.Body)
			u.err = fmt.Errorf("shard %s answered %d", url, resp.StatusCode)
		case resp.StatusCode == http.StatusNotFound:
			u.notFound, u.contentType = true, resp.Header.Get("Content-Type")
			u.body, _ = io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			u.err = fmt.Errorf("shard %s answered 404", url)
		default:
			done := answer(url, resp)
			resp.Body.Close()
			if done {
				return nil
			}
			continue
		}
		resp.Body.Close()
	}
	return u
}

// fail ends a request no shard answered: the saved 404, verbatim, when a
// shard gave one (every candidate agrees the graph or job is unknown), 502
// otherwise.
func (r *Router) fail(w http.ResponseWriter, u *unanswered) {
	if u.notFound {
		if u.contentType != "" {
			w.Header().Set("Content-Type", u.contentType)
		}
		w.WriteHeader(http.StatusNotFound)
		w.Write(u.body)
		return
	}
	r.met.noShard.Add(1)
	msg := "no shard available"
	if u.err != nil {
		msg += ": " + u.err.Error()
	}
	errJSON(w, http.StatusBadGateway, msg)
}

// handleUnary serves analyze, reschedule and job creation: walk the ring
// for the body's fingerprint, copy the first final answer through, and
// replicate successful analyze bodies to the next replica.
func (r *Router) handleUnary(w http.ResponseWriter, req *http.Request) {
	body, err := httpbody.Read(w, req, r.cfg.MaxRequestBytes)
	if err != nil {
		errJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	contentType := req.Header.Get("Content-Type")
	if contentType == "" {
		contentType = "application/json"
	}
	cands := r.candidates(r.routeFingerprint(req, body))
	u := r.walk(req.Context(), cands,
		func(url string) (*http.Response, error) {
			return r.forward(r.client, url, req, req.URL.RequestURI(), contentType, body)
		},
		func(url string, resp *http.Response) bool {
			r.copyResponse(w, resp)
			if req.URL.Path == "/v1/analyze" && resp.StatusCode == http.StatusOK {
				r.replicate(req, cands, url, contentType, body)
			}
			return true
		})
	if u != nil {
		r.fail(w, u)
	}
}

// jobFingerprint extracts the placement key from a job id. Job ids are
// "<graph-fingerprint>-<seq>" (the shard mints them that way precisely so
// every request about a job hashes to the shard that owns the graph's
// traffic); an id without the separator routes by its raw bytes.
func jobFingerprint(id string) string {
	if i := bytes.LastIndexByte([]byte(id), '-'); i > 0 {
		return id[:i]
	}
	return id
}

// handleJobByID routes job status, stream, and cancel requests by the job
// id's fingerprint prefix. Jobs are shard-resident state (unlike stateless
// batch items there is nothing to fail over — a successor never ran the
// search), so the walk only looks for the owner: a bounded-load detour can
// put it later in the order, and the others answer 404. Streams go through
// relayJob.
func (r *Router) handleJobByID(w http.ResponseWriter, req *http.Request) {
	stream := strings.HasSuffix(req.URL.Path, "/stream")
	client := r.client
	if stream {
		client = r.batchClient // streams run as long as the job does
	}
	u := r.walk(req.Context(), r.candidates(jobFingerprint(req.PathValue("id"))),
		func(url string) (*http.Response, error) {
			return r.forward(client, url, req, req.URL.RequestURI(), "", nil)
		},
		func(url string, resp *http.Response) bool {
			if stream && resp.StatusCode == http.StatusOK {
				relayJob(w, resp.Body)
			} else {
				r.copyResponse(w, resp)
			}
			return true
		})
	if u != nil {
		r.fail(w, u)
	}
}

// relayLines reads a shard's stream one complete line at a time and hands
// each to line, which writes it to sw, until line refuses one or a trailer
// arrives. It returns the trailer, or nil when the stream ended, died, or
// was refused without one. A last line the shard cut in half is never
// handed on. Flushes are coalesced as on the shard: sw is flushed only
// when no further line has already arrived.
func relayLines(sw *ndjson.Writer, body io.Reader, line func([]byte) bool) []byte {
	rd := ndjson.NewReader(body)
	for {
		l, err := rd.Next()
		if err != nil {
			return nil
		}
		if ndjson.Classify(l) == ndjson.Trailer {
			return l
		}
		if !line(l) {
			return nil
		}
		if rd.Buffered() == 0 {
			sw.Flush()
		}
	}
}

// relayJob relays a job stream line by line: the updates, then the shard's
// trailer. If the owning shard dies first, the stream still ends with
// exactly one trailer — a failed, truncated one — so the client learns the
// stream is over rather than complete. It then re-GETs the job and sees
// the 404 or the final state.
func relayJob(w http.ResponseWriter, body io.Reader) {
	sw := ndjson.Start(w, nil)
	trailer := relayLines(sw, body, func(line []byte) bool {
		sw.Line(line)
		return true
	})
	if trailer == nil {
		trailer = ndjson.JobTrailer{Status: "failed", Updates: sw.Lines(), Truncated: true, Reason: "shard failed"}.Line()
	}
	sw.End(trailer)
}

// replicate pins an analyzed graph on the rest of its replica set: the
// analyze request is re-sent, best-effort and synchronously, to every
// replica that did not already serve it, in its register-only form — same
// path and body bytes, the client's query plus register=1 — so a replica
// compiles and registers the image but runs no analysis. Failures are
// ignored beyond the passive down-mark — replication narrows the failover
// window, it is not a durability contract (a successor that missed a blob
// answers 404 on failover and the client re-analyzes).
func (r *Router) replicate(req *http.Request, cands []string, served, contentType string, body []byte) {
	q := req.URL.Query()
	q.Set("register", "1")
	uri := req.URL.Path + "?" + q.Encode()
	n := 0
	for _, url := range cands {
		if n >= r.cfg.Replicas {
			break
		}
		n++
		if url == served {
			continue
		}
		resp, err := r.forward(r.client, url, req, uri, contentType, body)
		if err != nil {
			r.markDown(url)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			r.met.replications.Add(1)
		}
	}
}

// copyResponse copies a shard's final answer through: status, the
// protocol's payload headers, and the body verbatim (byte parity with a
// direct shard response is a tested contract). A 429 counts as shed.
func (r *Router) copyResponse(w http.ResponseWriter, resp *http.Response) {
	if resp.StatusCode == http.StatusTooManyRequests {
		r.met.shed.Add(1)
	}
	for _, h := range []string{"Content-Type", "X-Mia-Cache", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// handleHealthz answers the router's own liveness: 200 with the fleet's
// health summary while at least one shard is healthy, 503 otherwise.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	healthy := 0
	for _, m := range r.ring.Members() {
		if r.targets[m].healthy.Load() {
			healthy++
		}
	}
	status := http.StatusOK
	state := "ok"
	if healthy == 0 {
		status = http.StatusServiceUnavailable
		state = "no healthy shards"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"status":%q,"shards":%d,"healthy":%d}`, state, len(r.targets), healthy)
}

// targetState is one shard's entry in the router's /metrics.
type targetState struct {
	Healthy  bool   `json:"healthy"`
	InFlight int64  `json:"in_flight"`
	URL      string `json:"url"`
}

// targetStates reports every shard's health flag and in-flight count, in
// ring member order.
func (r *Router) targetStates() any {
	var out []targetState
	for _, url := range r.ring.Members() {
		t := r.targets[url]
		out = append(out, targetState{Healthy: t.healthy.Load(), InFlight: t.inflight.Load(), URL: url})
	}
	return out
}

// handleMetrics serves the router's own counters (shards keep their own
// /metrics; the router never aggregates them — scrape both layers).
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, r.met.vars.String())
}

// parseBatchBody splits a batch request for routing with the shard's own
// parser, wire.ParseBatch, so a body the shard would refuse is refused here
// with the same words. It returns the batch and its placement key.
func parseBatchBody(req *http.Request, body []byte) (*wire.Batch, string, error) {
	b, err := wire.ParseBatch(req.Header.Get("Content-Type"), body)
	if err != nil {
		return nil, "", err
	}
	// As in routeFingerprint, a graph no fingerprint can be derived from
	// routes by the raw body, and the shard answers its error.
	fp := req.Header.Get(wire.RouteHeader)
	switch {
	case fp != "":
	case b.Blob != nil:
		fp, _ = wire.BlobFingerprint(b.Blob)
	default:
		fp = refFingerprint(b.Hash, b.Graph)
	}
	if fp == "" {
		fp = string(body)
	}
	return b, fp, nil
}

// subBody builds the request body (and content type) for a sub-batch of the
// original items — the whole batch on the first attempt, the un-streamed
// remainder on failover. The graph part is always re-sent in its original
// form, so an inline-graph batch never depends on the failover shard's
// registry. Items are re-sent as they came; the router never interprets
// swaps.
func subBody(b *wire.Batch, indices []int) (string, []byte) {
	var items bytes.Buffer
	items.WriteByte('[')
	for i, idx := range indices {
		if i > 0 {
			items.WriteByte(',')
		}
		items.Write(b.Items[idx])
	}
	items.WriteByte(']')
	if b.Blob != nil {
		body := make([]byte, 0, len(b.Blob)+items.Len()+16)
		body = append(body, b.Blob...)
		body = append(body, `{"items":`...)
		body = append(body, items.Bytes()...)
		body = append(body, '}')
		return wire.ContentType, body
	}
	var body bytes.Buffer
	body.WriteByte('{')
	if b.Hash != "" {
		hash, _ := json.Marshal(b.Hash) // a string always marshals
		body.WriteString(`"hash":`)
		body.Write(hash)
	} else {
		body.WriteString(`"graph":`)
		body.Write(b.Graph)
	}
	body.WriteString(`,"items":`)
	body.Write(items.Bytes())
	body.WriteByte('}')
	return "application/json", body.Bytes()
}

// handleBatch streams a batch through the ring walk. The happy path is a
// verbatim relay: result lines and the trailer are forwarded as the shard
// wrote them (byte parity with a direct batch). When the stream dies
// mid-batch the walk fails over: the un-streamed items are re-admitted to
// the next shard as a sub-batch, returned line indices are rewritten to the
// original item indices, and the router writes the single final trailer
// itself.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	body, err := httpbody.Read(w, req, r.cfg.MaxRequestBytes)
	if err != nil {
		errJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	b, fp, err := parseBatchBody(req, body)
	if err != nil {
		errJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	st := &batchStream{r: r, w: w, total: len(b.Items), streamed: make([]bool, len(b.Items))}
	u := r.walk(req.Context(), r.candidates(fp),
		func(url string) (*http.Response, error) {
			if st.sw != nil {
				r.met.batchFailovers.Add(1)
			}
			st.sent = st.notStreamed()
			contentType, sub := subBody(b, st.sent)
			return r.forward(r.batchClient, url, req, req.URL.RequestURI(), contentType, sub)
		},
		func(url string, resp *http.Response) bool {
			switch {
			case resp.StatusCode == http.StatusOK:
				if st.relay(resp.Body) {
					return true
				}
				if req.Context().Err() == nil {
					r.markDown(url) // the shard died or drained under the stream
				}
				return false
			case st.sw != nil:
				// A failover shard's verdict: the client already holds
				// lines, so the only legal ending is a trailer. Try on.
				return false
			}
			// Pre-stream verdict (bad request, 429 shed): pass it through.
			r.copyResponse(w, resp)
			return true
		})
	switch {
	case u == nil: // a shard finished the request
	case st.sw == nil:
		r.fail(w, u)
	default:
		// Every candidate failed after the stream started: end it with the
		// lines it has, truncated.
		r.met.noShard.Add(1)
		st.sw.End(ndjson.BatchTrailer{Items: st.total, Completed: st.sw.Lines(), Truncated: true, Reason: "shard failed"}.Line())
	}
}

// batchStream tracks one client-facing batch response across shard
// attempts: which original items have had their line streamed, and which
// items the current attempt carries.
type batchStream struct {
	r        *Router
	w        http.ResponseWriter
	sw       *ndjson.Writer // nil until a shard's stream starts the response
	total    int
	streamed []bool
	sent     []int // the current attempt's items: sub-batch index → original index
}

// notStreamed returns the original indices still owed to the client.
func (st *batchStream) notStreamed() []int {
	var out []int
	for i, s := range st.streamed {
		if !s {
			out = append(out, i)
		}
	}
	return out
}

// relay copies one shard's batch stream to the client, mapping its line
// indices back through st.sent, and reports whether the client's response
// is complete. Once every item's line is out the batch ends: with the
// shard's own trailer, byte for byte, when this shard served the whole
// batch, and with a synthesized one otherwise. A stream that ends short —
// the shard died, drained, or timed out — leaves the rest to fail over.
func (st *batchStream) relay(body io.Reader) bool {
	if st.sw == nil {
		st.sw = ndjson.Start(st.w, nil)
	}
	verbatim := len(st.sent) == st.total // indices line up: relay untouched
	trailer := relayLines(st.sw, body, func(line []byte) bool {
		sub, ok := ndjson.Index(line)
		if !ok || sub >= len(st.sent) {
			return false // not a result line of this sub-batch
		}
		orig := st.sent[sub]
		if st.streamed[orig] {
			// Never forward a duplicate: the no-dup guarantee outranks a
			// misbehaving shard.
			return true
		}
		st.streamed[orig] = true
		st.r.met.linesStreamed.Add(1)
		if !verbatim {
			line = ndjson.RewriteIndex(line, orig)
		}
		st.sw.Line(line)
		return true
	})
	if st.sw.Lines() < st.total {
		return false
	}
	if trailer == nil || !verbatim {
		trailer = ndjson.BatchTrailer{Items: st.total, Completed: st.total}.Line()
	}
	st.sw.End(trailer)
	return true
}
