package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/wire"
)

// Router fronts a fleet of miaserve shards. It speaks the shards' own
// protocol on the client side — POST /v1/analyze, /v1/reschedule,
// /v1/batch (JSON or wire bodies), GET /healthz, /metrics — and places
// every request on the ring by its graph fingerprint, so each graph's warm
// engine image, analyzer checkpoints, and batch memo stay resident on the
// shard (and successor) that its traffic keeps landing on.
//
// Failure handling, in escalating order:
//
//   - Transient unary failures (connection errors, 503 from a draining
//     shard) retry on the next ring replica after a jittered backoff, and
//     passively mark the failed shard down until a health probe clears it.
//   - Analyze bodies are replicated: after the serving shard answers 200,
//     the same body is re-posted best-effort to the next ring replica, so
//     every registered image is pinned on its primary plus one successor
//     and a by-hash request surviving a primary death still resolves.
//   - A shard dying mid-batch fails over: the router re-admits exactly the
//     items whose result lines it has not yet streamed to the client, maps
//     the successor's line indices back to the original item indices, and
//     emits exactly one trailer for the whole batch — no result line is
//     duplicated (lines already streamed are never re-admitted) and none
//     is lost (un-streamed items are re-evaluated; shard results are
//     bit-identical, so a re-evaluated line equals the one that died in
//     the socket).
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
	// Vnodes is the ring's virtual-node count per shard (default
	// DefaultVnodes).
	Vnodes int
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
	// LoadFactor is the bounded-load factor c: a shard already carrying
	// more than c times the mean in-flight load is deprioritized (not
	// excluded) in the ring walk (default 1.25).
	LoadFactor float64
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
	if c.LoadFactor <= 1 {
		c.LoadFactor = 1.25
	}
	return c
}

// target is one shard's live state: health flag and in-flight counter (the
// bounded-load signal).
type target struct {
	url      string
	healthy  atomic.Bool
	inflight atomic.Int64
}

// routerMetrics are the router's own counters, exposed on /metrics.
type routerMetrics struct {
	forwarded      atomic.Int64 // requests forwarded to a shard (attempts)
	retries        atomic.Int64 // replica retries after a transient failure
	replications   atomic.Int64 // successful analyze-body replications
	batchFailovers atomic.Int64 // batches continued on a successor mid-stream
	linesStreamed  atomic.Int64 // batch result lines forwarded to clients
	shed           atomic.Int64 // 429/503 verdicts passed through
	noShard        atomic.Int64 // requests that exhausted every replica
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
		ring:   NewRing(cfg.Targets, cfg.Vnodes),
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
		return t.healthy.Load() && WithinBound(int(t.inflight.Load()), total, len(r.targets), r.cfg.LoadFactor)
	})
	if len(ord) > r.cfg.Retries {
		ord = ord[:r.cfg.Retries]
	}
	return ord
}

// backoff sleeps the jittered inter-attempt delay, bailing early when ctx
// dies.
func (r *Router) backoff(ctx context.Context) {
	r.rngMu.Lock()
	d := r.cfg.Backoff/2 + time.Duration(r.rng.Int63n(int64(r.cfg.Backoff/2)+1))
	r.rngMu.Unlock()
	select {
	case <-time.After(d):
	case <-ctx.Done():
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

// routeFingerprint derives the placement key for a request body. Precedence:
// the client's RouteHeader hint, then the body itself (hash field, wire
// blob, or graph JSON). A body no fingerprint can be derived from routes by
// its raw bytes — deterministic, and the shard will reject it with the
// proper error.
func (r *Router) routeFingerprint(req *http.Request, path string, body []byte) string {
	if fp := req.Header.Get(wire.RouteHeader); fp != "" {
		return fp
	}
	if isWireBody(req) {
		// Unary wire bodies are a whole blob; batch wire bodies are a blob
		// followed by the items object. Size tells us where the blob ends.
		n, err := wire.Size(body)
		if err == nil && n <= len(body) {
			if fp, err := wire.BlobFingerprint(body[:n]); err == nil {
				return fp
			}
		}
		return string(body)
	}
	switch path {
	case "/v1/reschedule", "/v1/batch", "/v1/jobs":
		var req struct {
			Hash  string          `json:"hash"`
			Graph json.RawMessage `json:"graph"`
		}
		if json.Unmarshal(body, &req) == nil {
			if req.Hash != "" {
				return req.Hash
			}
			if fp := graphFingerprint(req.Graph); fp != "" {
				return fp
			}
		}
	default: // /v1/analyze
		if fp := graphFingerprint(body); fp != "" {
			return fp
		}
	}
	return string(body)
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

// isWireBody reports whether the request declares the binary wire media
// type (mirrors the shard-side check).
func isWireBody(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if i := bytes.IndexByte([]byte(ct), ';'); i >= 0 {
		ct = ct[:i]
	}
	return ct == "application/x-mia-wire"
}

// forward issues one attempt of a request to one shard and returns the
// response. The in-flight counter brackets only the attempt itself, not the
// body read — it is the admission-pressure signal for bounded-load
// placement, and a long batch stream is backpressure the shard already
// accounts for in its own queue.
func (r *Router) forward(ctx context.Context, client *http.Client, url, path, query, contentType string, body []byte) (*http.Response, error) {
	t := r.targets[url]
	t.inflight.Add(1)
	defer t.inflight.Add(-1)
	full := url + path
	if query != "" {
		full += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, full, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	r.met.forwarded.Add(1)
	return client.Do(req)
}

// handleUnary serves analyze and reschedule: pick the replica order for the
// body's fingerprint, try each with jittered backoff between attempts, copy
// the first non-transient response through, and replicate successful
// analyze bodies to the next replica.
func (r *Router) handleUnary(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.MaxRequestBytes))
	if err != nil {
		errJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	path := req.URL.Path
	contentType := req.Header.Get("Content-Type")
	if contentType == "" {
		contentType = "application/json"
	}
	fp := r.routeFingerprint(req, path, body)
	cands := r.candidates(fp)

	var lastErr error
	var notFound *savedVerdict
	for i, url := range cands {
		if i > 0 {
			r.met.retries.Add(1)
			r.backoff(req.Context())
			if req.Context().Err() != nil {
				break
			}
		}
		resp, err := r.forward(req.Context(), r.client, url, path, req.URL.RawQuery, contentType, body)
		if err != nil {
			if req.Context().Err() == nil {
				r.markDown(url) // shard failure, not our client going away
			}
			lastErr = err
			continue
		}
		if transientStatus(resp.StatusCode) {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("shard %s answered %d", url, resp.StatusCode)
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			// A 404 is a per-shard verdict, not a fleet one: bounded-load
			// reordering can put a shard outside the fingerprint's replica
			// set first, and that shard legitimately never got the image.
			// Keep walking the ring; replay the verdict only when no
			// candidate knows the graph.
			notFound = saveVerdict(resp)
			resp.Body.Close()
			lastErr = fmt.Errorf("shard %s answered 404", url)
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			r.met.shed.Add(1)
		}
		copyResponse(w, resp)
		resp.Body.Close()
		if path == "/v1/analyze" && resp.StatusCode == http.StatusOK {
			r.replicate(req.Context(), cands, url, contentType, body)
		}
		return
	}
	if notFound != nil {
		notFound.replay(w)
		return
	}
	r.met.noShard.Add(1)
	msg := "no shard available"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	errJSON(w, http.StatusBadGateway, msg)
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
// search), so a 404 continues the ring walk exactly like handleUnary's: a
// bounded-load detour can put the owning shard later in the order. Streams
// relay verbatim with per-chunk flushes; if the owning shard dies
// mid-stream the stream simply ends — the client re-GETs the job and sees
// the 404 or the final state.
func (r *Router) handleJobByID(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	path := "/v1/jobs/" + id
	stream := false
	if bytes.HasSuffix([]byte(req.URL.Path), []byte("/stream")) {
		path += "/stream"
		stream = true
	}
	cands := r.candidates(jobFingerprint(id))

	var lastErr error
	var notFound *savedVerdict
	for i, url := range cands {
		if i > 0 {
			r.met.retries.Add(1)
			r.backoff(req.Context())
			if req.Context().Err() != nil {
				break
			}
		}
		client := r.client
		if stream {
			client = r.batchClient // streams run as long as the job does
		}
		t := r.targets[url]
		t.inflight.Add(1)
		hreq, err := http.NewRequestWithContext(req.Context(), req.Method, url+path, nil)
		if err != nil {
			t.inflight.Add(-1)
			lastErr = err
			continue
		}
		r.met.forwarded.Add(1)
		resp, err := client.Do(hreq)
		t.inflight.Add(-1)
		if err != nil {
			if req.Context().Err() == nil {
				r.markDown(url)
			}
			lastErr = err
			continue
		}
		if transientStatus(resp.StatusCode) {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("shard %s answered %d", url, resp.StatusCode)
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			notFound = saveVerdict(resp)
			resp.Body.Close()
			lastErr = fmt.Errorf("shard %s answered 404", url)
			continue
		}
		if stream && resp.StatusCode == http.StatusOK {
			relayStream(w, resp.Body)
			resp.Body.Close()
			return
		}
		copyResponse(w, resp)
		resp.Body.Close()
		return
	}
	if notFound != nil {
		notFound.replay(w)
		return
	}
	r.met.noShard.Add(1)
	msg := "no shard available"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	errJSON(w, http.StatusBadGateway, msg)
}

// relayStream copies an NDJSON stream through with a flush per read, so
// front updates reach the client as the shard emits them instead of
// pooling in a proxy buffer.
func relayStream(w http.ResponseWriter, body io.Reader) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			w.Write(buf[:n])
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// savedVerdict is a buffered non-200 shard response held while the ring
// walk continues, replayed verbatim if every candidate agrees.
type savedVerdict struct {
	status      int
	contentType string
	body        []byte
}

func saveVerdict(resp *http.Response) *savedVerdict {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	return &savedVerdict{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		body:        body,
	}
}

func (v *savedVerdict) replay(w http.ResponseWriter) {
	if v.contentType != "" {
		w.Header().Set("Content-Type", v.contentType)
	}
	w.WriteHeader(v.status)
	w.Write(v.body)
}

// replicate pins an analyzed graph on the rest of its replica set: the
// analyze body is re-posted, best-effort and synchronously, to every
// replica that did not already serve it. Failures are ignored beyond the
// passive down-mark — replication narrows the failover window, it is not a
// durability contract (a successor that missed a blob answers 404 on
// failover and the client re-analyzes).
func (r *Router) replicate(ctx context.Context, cands []string, served, contentType string, body []byte) {
	n := 0
	for _, url := range cands {
		if n >= r.cfg.Replicas {
			break
		}
		n++
		if url == served {
			continue
		}
		resp, err := r.forward(ctx, r.client, url, "/v1/analyze", "", contentType, body)
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

// copyResponse copies a shard response through: status, the protocol's
// payload headers, and the body verbatim (byte parity with a direct shard
// response is a tested contract).
func copyResponse(w http.ResponseWriter, resp *http.Response) {
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

// routerSnapshot is the /metrics body.
type routerSnapshot struct {
	Targets []struct {
		URL      string `json:"url"`
		Healthy  bool   `json:"healthy"`
		InFlight int64  `json:"in_flight"`
	} `json:"targets"`
	Forwarded      int64 `json:"forwarded"`
	Retries        int64 `json:"retries"`
	Replications   int64 `json:"replications"`
	BatchFailovers int64 `json:"batch_failovers"`
	LinesStreamed  int64 `json:"lines_streamed"`
	Shed           int64 `json:"shed"`
	NoShard        int64 `json:"no_shard"`
}

// handleMetrics serves the router's own counters (shards keep their own
// /metrics; the router never aggregates them — scrape both layers).
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	var s routerSnapshot
	for _, url := range r.ring.Members() {
		t := r.targets[url]
		s.Targets = append(s.Targets, struct {
			URL      string `json:"url"`
			Healthy  bool   `json:"healthy"`
			InFlight int64  `json:"in_flight"`
		}{URL: url, Healthy: t.healthy.Load(), InFlight: t.inflight.Load()})
	}
	s.Forwarded = r.met.forwarded.Load()
	s.Retries = r.met.retries.Load()
	s.Replications = r.met.replications.Load()
	s.BatchFailovers = r.met.batchFailovers.Load()
	s.LinesStreamed = r.met.linesStreamed.Load()
	s.Shed = r.met.shed.Load()
	s.NoShard = r.met.noShard.Load()
	b, err := json.Marshal(&s)
	if err != nil {
		errJSON(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// parsedBatch is a batch request split into its routable parts: the graph
// part (hash, inline JSON graph, or wire blob) and the raw per-item
// scenarios, which failover re-admission slices.
type parsedBatch struct {
	fp        string
	hash      string            // set when the graph part is a hash reference
	graphJSON json.RawMessage   // set when the graph part is an inline JSON graph
	wireBlob  []byte            // set when the graph part is a wire blob
	items     []json.RawMessage // raw scenario objects, in request order
}

// parseBatchBody splits a batch request for routing. It mirrors the shard's
// own parse, but keeps items raw: the router re-serializes subsets, never
// interprets swaps.
func (r *Router) parseBatchBody(req *http.Request, body []byte) (*parsedBatch, error) {
	pb := &parsedBatch{}
	if isWireBody(req) {
		n, err := wire.Size(body)
		if err != nil || n > len(body) {
			return nil, errors.New("batch body must start with a wire graph blob")
		}
		pb.wireBlob = body[:n]
		var rest struct {
			Items []json.RawMessage `json:"items"`
		}
		if err := json.Unmarshal(body[n:], &rest); err != nil {
			return nil, fmt.Errorf("parsing batch items after wire blob: %w", err)
		}
		pb.items = rest.Items
		if fp := req.Header.Get(wire.RouteHeader); fp != "" {
			pb.fp = fp
		} else if fp, err := wire.BlobFingerprint(pb.wireBlob); err == nil {
			pb.fp = fp
		} else {
			pb.fp = string(body)
		}
		return pb, nil
	}
	var jreq struct {
		Hash  string            `json:"hash"`
		Graph json.RawMessage   `json:"graph"`
		Items []json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(body, &jreq); err != nil {
		return nil, fmt.Errorf("parsing batch request: %w", err)
	}
	pb.hash, pb.graphJSON, pb.items = jreq.Hash, jreq.Graph, jreq.Items
	switch {
	case pb.fp == "" && req.Header.Get(wire.RouteHeader) != "":
		pb.fp = req.Header.Get(wire.RouteHeader)
	case pb.hash != "":
		pb.fp = pb.hash
	case len(pb.graphJSON) > 0:
		if pb.fp = graphFingerprint(pb.graphJSON); pb.fp == "" {
			pb.fp = string(body)
		}
	default:
		pb.fp = string(body)
	}
	return pb, nil
}

// subBody builds the request body (and content type) for a sub-batch of the
// original items — the whole batch on the first attempt, the un-streamed
// remainder on failover. The graph part is always re-sent in its original
// form, so an inline-graph batch never depends on the failover shard's
// registry.
func (pb *parsedBatch) subBody(indices []int) (string, []byte) {
	var items bytes.Buffer
	items.WriteByte('[')
	for i, idx := range indices {
		if i > 0 {
			items.WriteByte(',')
		}
		items.Write(pb.items[idx])
	}
	items.WriteByte(']')
	if pb.wireBlob != nil {
		body := make([]byte, 0, len(pb.wireBlob)+items.Len()+16)
		body = append(body, pb.wireBlob...)
		body = append(body, `{"items":`...)
		body = append(body, items.Bytes()...)
		body = append(body, '}')
		return "application/x-mia-wire", body
	}
	var body bytes.Buffer
	body.WriteByte('{')
	if pb.hash != "" {
		fmt.Fprintf(&body, `"hash":%q,`, pb.hash)
	} else if len(pb.graphJSON) > 0 {
		body.WriteString(`"graph":`)
		body.Write(pb.graphJSON)
		body.WriteByte(',')
	}
	body.WriteString(`"items":`)
	body.Write(items.Bytes())
	body.WriteByte('}')
	return "application/json", body.Bytes()
}

// handleBatch streams a batch through the replica chain. The happy path is
// a verbatim relay: result lines and the trailer are forwarded as the shard
// wrote them (byte parity with a direct batch). When the stream dies
// mid-batch the router fails over: the un-streamed items are re-admitted to
// the next replica as a sub-batch, returned line indices are rewritten to
// the original item indices, and the router synthesizes the single final
// trailer itself.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.MaxRequestBytes))
	if err != nil {
		errJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	pb, err := r.parseBatchBody(req, body)
	if err != nil {
		errJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	cands := r.candidates(pb.fp)

	st := &batchStream{w: w, r: r, total: len(pb.items), streamed: make([]bool, len(pb.items))}
	remaining := make([]int, len(pb.items))
	for i := range remaining {
		remaining[i] = i
	}

	var lastErr error
	var notFound *savedVerdict
	for attempt, url := range cands {
		if len(remaining) == 0 && st.headerSent {
			break
		}
		if attempt > 0 {
			if st.headerSent {
				r.met.batchFailovers.Add(1)
			}
			r.met.retries.Add(1)
			r.backoff(req.Context())
			if req.Context().Err() != nil {
				break
			}
		}
		contentType, subBody := pb.subBody(remaining)
		resp, err := r.forward(req.Context(), r.batchClient, url, "/v1/batch", req.URL.RawQuery, contentType, subBody)
		if err != nil {
			if req.Context().Err() == nil {
				r.markDown(url)
			}
			lastErr = err
			continue
		}
		if transientStatus(resp.StatusCode) {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("shard %s answered %d", url, resp.StatusCode)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			// Pre-stream verdict (bad request, unknown hash, 429 shed). On
			// the first attempt it passes through verbatim — except a 404,
			// which is placement-dependent (a bounded-load-reordered shard
			// outside the replica set never got the image) and continues
			// the walk like handleUnary. Mid-failover the client already
			// holds streamed lines, so the only legal ending is a truncated
			// trailer.
			if !st.headerSent {
				if resp.StatusCode == http.StatusNotFound {
					notFound = saveVerdict(resp)
					resp.Body.Close()
					lastErr = fmt.Errorf("shard %s answered 404", url)
					continue
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					r.met.shed.Add(1)
				}
				copyResponse(w, resp)
				resp.Body.Close()
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("failover shard %s answered %d", url, resp.StatusCode)
			continue
		}
		done, err := st.relay(resp.Body, remaining)
		resp.Body.Close()
		if done {
			return // trailer delivered (relayed verbatim or synthesized complete)
		}
		if err != nil {
			if req.Context().Err() == nil {
				r.markDown(url) // the shard died or drained under the stream
			}
			lastErr = err
		}
		remaining = st.notStreamed()
		if req.Context().Err() != nil {
			break // client gone or deadline: stop failing over, end the stream
		}
	}

	if !st.headerSent && notFound != nil {
		notFound.replay(w)
		return
	}
	r.met.noShard.Add(1)
	if !st.headerSent {
		msg := "no shard available"
		if lastErr != nil {
			msg += ": " + lastErr.Error()
		}
		errJSON(w, http.StatusBadGateway, msg)
		return
	}
	st.writeTrailer(true, "shard failed")
}

// batchStream tracks one client-facing batch response across shard
// attempts: which original items have had their line streamed, whether the
// 200 header is out, and the single-trailer guarantee.
type batchStream struct {
	w           http.ResponseWriter
	r           *Router
	total       int
	streamed    []bool
	completed   int
	headerSent  bool
	trailerSent bool
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

// relay copies one shard's NDJSON stream to the client, rewriting line
// indices through the sub-batch mapping. It returns done=true once the
// client-facing response is complete (trailer written). A shard trailer
// only finishes the batch when this attempt covered every remaining item
// and nothing was truncated; a truncated shard trailer (that shard began
// draining mid-batch) is swallowed and the un-streamed items fail over.
func (st *batchStream) relay(stream io.Reader, mapping []int) (bool, error) {
	flusher, _ := st.w.(http.Flusher)
	if !st.headerSent {
		st.headerSent = true
		st.w.Header().Set("Content-Type", "application/x-ndjson")
		st.w.WriteHeader(http.StatusOK)
	}
	verbatim := len(mapping) == st.total // first attempt: indices line up, relay untouched
	dec := json.NewDecoder(stream)
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if err == io.EOF {
				return false, errors.New("shard stream ended without a trailer")
			}
			return false, err
		}
		var probe struct {
			Done      *bool `json:"done"`
			Index     *int  `json:"index"`
			Truncated bool  `json:"truncated"`
			Completed int   `json:"completed"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return false, err
		}
		switch {
		case probe.Done != nil && *probe.Done:
			if !probe.Truncated && st.completed == st.total && verbatim {
				// Whole batch served by one shard: its trailer is the
				// client's trailer, byte for byte.
				st.writeRaw(append(raw, '\n'), flusher)
				st.trailerSent = true
				return true, nil
			}
			if !probe.Truncated && st.completed == st.total {
				st.writeTrailer(false, "")
				return true, nil
			}
			// Truncated sub-batch (the shard drained or timed out under
			// us): not an error on the wire, but the batch is unfinished —
			// fail the remainder over.
			return false, fmt.Errorf("shard truncated sub-batch after %d lines", probe.Completed)
		case probe.Index != nil:
			sub := *probe.Index
			if sub < 0 || sub >= len(mapping) {
				return false, fmt.Errorf("shard returned out-of-range line index %d", sub)
			}
			orig := mapping[sub]
			if st.streamed[orig] {
				// Never forward a duplicate: the no-dup guarantee outranks
				// a misbehaving shard.
				continue
			}
			st.streamed[orig] = true
			st.completed++
			st.r.met.linesStreamed.Add(1)
			if verbatim {
				st.writeRaw(append(raw, '\n'), flusher)
			} else {
				st.writeRaw(append(rewriteIndex(raw, orig), '\n'), flusher)
			}
		default:
			return false, errors.New("shard line is neither a result nor a trailer")
		}
	}
}

// writeRaw writes one NDJSON line and flushes it (failover batches are
// long-lived streams; latency beats syscall coalescing here).
func (st *batchStream) writeRaw(line []byte, flusher http.Flusher) {
	st.w.Write(line)
	if flusher != nil {
		flusher.Flush()
	}
}

// writeTrailer synthesizes the single client-facing trailer. Exactly one
// trailer per batch response is a protocol guarantee, so the sent flag is
// checked even on the failure paths.
func (st *batchStream) writeTrailer(truncated bool, reason string) {
	if st.trailerSent {
		return
	}
	st.trailerSent = true
	t := struct {
		Done      bool   `json:"done"`
		Items     int    `json:"items"`
		Completed int    `json:"completed"`
		Truncated bool   `json:"truncated"`
		Reason    string `json:"reason,omitempty"`
	}{Done: true, Items: st.total, Completed: st.completed, Truncated: truncated || st.completed < st.total}
	if t.Truncated {
		t.Reason = reason
		if t.Reason == "" {
			t.Reason = "interrupted"
		}
	}
	b, _ := json.Marshal(&t)
	flusher, _ := st.w.(http.Flusher)
	st.writeRaw(append(b, '\n'), flusher)
}

// rewriteIndex maps a result line's "index" field from sub-batch to
// original numbering by splicing the digits: every shard result line
// starts with the fixed prefix {"index":N, (the shard marshals the struct
// field order), so the rewrite is a prefix swap, not a re-marshal — the
// rest of the line, result bytes included, passes through untouched.
func rewriteIndex(line json.RawMessage, orig int) []byte {
	const prefix = `{"index":`
	if len(line) > len(prefix) && string(line[:len(prefix)]) == prefix {
		i := len(prefix)
		for i < len(line) && line[i] >= '0' && line[i] <= '9' {
			i++
		}
		if i > len(prefix) {
			out := make([]byte, 0, len(line)+4)
			out = append(out, prefix...)
			out = strconv.AppendInt(out, int64(orig), 10)
			out = append(out, line[i:]...)
			return out
		}
	}
	// Unexpected shape: fall back to a decode/re-encode of just the index.
	var m map[string]json.RawMessage
	if err := json.Unmarshal(line, &m); err == nil {
		m["index"] = json.RawMessage(strconv.Itoa(orig))
		if b, err := json.Marshal(m); err == nil {
			return b
		}
	}
	return line
}
