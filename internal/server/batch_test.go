package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/wire"
)

// lineJSON is the union of batch result lines and the trailer, for test
// parsing.
type lineJSON struct {
	Index  int             `json:"index"`
	Status int             `json:"status"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`

	Done      bool   `json:"done"`
	Items     int    `json:"items"`
	Completed int    `json:"completed"`
	Truncated bool   `json:"truncated"`
	Reason    string `json:"reason"`
}

// parseNDJSON splits a batch response body into result lines and trailer.
func parseNDJSON(t *testing.T, body []byte) ([]lineJSON, lineJSON) {
	t.Helper()
	raw := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(raw) == 0 || raw[0] == "" {
		t.Fatalf("empty batch response %q", body)
	}
	all := make([]lineJSON, len(raw))
	for i, l := range raw {
		if err := json.Unmarshal([]byte(l), &all[i]); err != nil {
			t.Fatalf("line %d: %v (line %q)", i, err, l)
		}
	}
	trailer := all[len(all)-1]
	if !trailer.Done {
		t.Fatalf("last line is not a trailer: %s", raw[len(raw)-1])
	}
	return all[:len(all)-1], trailer
}

func doBatch(s *Server, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	return rr
}

// TestBatchMatchesUnary: every batch item's result must be byte-identical
// to the unary reschedule response for the same swaps — the two paths share
// whatIf as their evaluation core, and this pins it.
func TestBatchMatchesUnary(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	hash := responseHash(t, analyzeGraph(t, s, graphJSON(t, gen.Figure2())))

	itemSwaps := []string{
		`[]`,
		`[{"core":2,"pos":0}]`,
		`[{"core":3,"pos":1},{"core":0,"pos":1}]`,
		`[{"core":2,"pos":0},{"core":2,"pos":0}]`, // identity pair: swap and swap back
		`[{"core":1,"pos":0}]`,
	}
	unary := make([][]byte, len(itemSwaps))
	for i, sw := range itemSwaps {
		rr := do(s, http.MethodPost, "/v1/reschedule",
			strings.NewReader(fmt.Sprintf(`{"hash":%q,"swaps":%s}`, hash, sw)))
		if rr.Code != http.StatusOK {
			t.Fatalf("unary[%d]: %d (%s)", i, rr.Code, rr.Body.String())
		}
		unary[i] = rr.Body.Bytes()
	}

	body := fmt.Sprintf(`{"hash":%q,"items":[%s]}`, hash,
		`{"swaps":`+strings.Join(itemSwaps, `},{"swaps":`)+`}`)
	rr := doBatch(s, "", []byte(body))
	if rr.Code != http.StatusOK {
		t.Fatalf("batch: %d (%s)", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	lines, trailer := parseNDJSON(t, rr.Body.Bytes())
	if len(lines) != len(itemSwaps) {
		t.Fatalf("%d result lines, want %d", len(lines), len(itemSwaps))
	}
	if trailer.Truncated || trailer.Completed != len(itemSwaps) || trailer.Items != len(itemSwaps) {
		t.Fatalf("trailer %+v, want complete run of %d", trailer, len(itemSwaps))
	}
	for i, line := range lines {
		if line.Index != i || line.Status != http.StatusOK {
			t.Fatalf("line %d: index %d status %d", i, line.Index, line.Status)
		}
		if !bytes.Equal(line.Result, unary[i]) {
			t.Errorf("item %d result differs from unary response\nbatch: %s\nunary: %s",
				i, line.Result, unary[i])
		}
	}
}

// TestBatchItemErrors: a bad item fails alone; the batch carries on and the
// trailer still reports a complete, untruncated run.
func TestBatchItemErrors(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	hash := responseHash(t, analyzeGraph(t, s, graphJSON(t, gen.Figure2())))

	body := fmt.Sprintf(`{"hash":%q,"items":[{"swaps":[{"core":2,"pos":0}]},{"swaps":[{"core":99,"pos":0}]},{"swaps":[]}]}`, hash)
	rr := doBatch(s, "", []byte(body))
	if rr.Code != http.StatusOK {
		t.Fatalf("batch: %d (%s)", rr.Code, rr.Body.String())
	}
	lines, trailer := parseNDJSON(t, rr.Body.Bytes())
	if len(lines) != 3 {
		t.Fatalf("%d result lines, want 3", len(lines))
	}
	wantStatus := []int{http.StatusOK, http.StatusBadRequest, http.StatusOK}
	for i, line := range lines {
		if line.Status != wantStatus[i] {
			t.Errorf("line %d status %d, want %d", i, line.Status, wantStatus[i])
		}
	}
	if !strings.Contains(lines[1].Error, "out of range") {
		t.Errorf("bad item error %q, want out-of-range message", lines[1].Error)
	}
	if trailer.Truncated || trailer.Completed != 3 {
		t.Errorf("trailer %+v, want 3 completed untruncated", trailer)
	}
}

// TestBatchWireIngest: a wire blob immediately followed by the items object
// is accepted and resolves to the same fingerprint as a JSON analyze of the
// same graph; the ingest counters record the binary path.
func TestBatchWireIngest(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	g := gen.Figure2()
	jsonHash := responseHash(t, analyzeGraph(t, s, graphJSON(t, g)))

	body := append(wire.EncodeGraph(roundTrip(t, g)),
		[]byte(`{"items":[{"swaps":[]},{"swaps":[{"core":2,"pos":0}]}]}`)...)
	rr := doBatch(s, wire.ContentType, body)
	if rr.Code != http.StatusOK {
		t.Fatalf("wire batch: %d (%s)", rr.Code, rr.Body.String())
	}
	lines, trailer := parseNDJSON(t, rr.Body.Bytes())
	if trailer.Truncated || len(lines) != 2 {
		t.Fatalf("trailer %+v with %d lines, want 2 untruncated", trailer, len(lines))
	}
	var res struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(lines[0].Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Hash != jsonHash {
		t.Errorf("wire-ingested batch hash %s, JSON analyze hash %s", res.Hash, jsonHash)
	}
	if got := s.met.ingestWire.Value(); got != 1 {
		t.Errorf("ingestWire = %d, want 1", got)
	}
}

// TestAnalyzeWireIngest: /v1/analyze accepts the binary format and answers
// byte-identically to the JSON path (a warm hit after a cold JSON analyze,
// which the bit-identical replay contract makes unobservable in the body).
func TestAnalyzeWireIngest(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	g := gen.Figure1()
	jsonResp := analyzeGraph(t, s, graphJSON(t, g))

	req := httptest.NewRequest(http.MethodPost, "/v1/analyze",
		bytes.NewReader(wire.EncodeGraph(roundTrip(t, g))))
	req.Header.Set("Content-Type", wire.ContentType)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("wire analyze: %d (%s)", rr.Code, rr.Body.String())
	}
	if !bytes.Equal(rr.Body.Bytes(), jsonResp.Body.Bytes()) {
		t.Errorf("wire analyze differs from JSON analyze\nwire: %s\njson: %s",
			rr.Body.Bytes(), jsonResp.Body.Bytes())
	}
	if got := s.met.ingestWire.Value(); got != 1 {
		t.Errorf("ingestWire = %d, want 1", got)
	}
	if got := s.met.ingestJSON.Value(); got != 1 {
		t.Errorf("ingestJSON = %d, want 1", got)
	}
}

// TestBatchBadInputs covers the pre-admission rejections: they answer a
// plain JSON error status before any NDJSON is streamed.
func TestBatchBadInputs(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	hash := responseHash(t, analyzeGraph(t, s, graphJSON(t, gen.Figure2())))
	cases := []struct {
		name        string
		contentType string
		body        string
		want        int
	}{
		{"no items", "", fmt.Sprintf(`{"hash":%q,"items":[]}`, hash), http.StatusBadRequest},
		{"missing graph", "", `{"items":[{"swaps":[]}]}`, http.StatusBadRequest},
		{"unknown hash", "", `{"hash":"deadbeef","items":[{"swaps":[]}]}`, http.StatusNotFound},
		{"hash and graph", "", fmt.Sprintf(`{"hash":%q,"graph":{},"items":[{"swaps":[]}]}`, hash), http.StatusBadRequest},
		{"unknown field", "", fmt.Sprintf(`{"hash":%q,"items":[{"swaps":[]}],"bogus":1}`, hash), http.StatusBadRequest},
		{"malformed", "", "{", http.StatusBadRequest},
		{"wire junk", wire.ContentType, "not a wire blob", http.StatusBadRequest},
		{"wire items garbage", wire.ContentType,
			string(wire.EncodeGraph(gen.Figure2())) + `{"bogus":[]}`, http.StatusBadRequest},
		{"wire missing items", wire.ContentType,
			string(wire.EncodeGraph(gen.Figure2())), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := doBatch(s, tc.contentType, []byte(tc.body))
			if rr.Code != tc.want {
				t.Fatalf("got %d, want %d (%s)", rr.Code, tc.want, rr.Body.String())
			}
		})
	}
}

// TestBatchQueueFullSheds429: a batch occupies exactly one admission slot
// and is shed like a unary request when the queue is full — before any
// NDJSON is streamed.
func TestBatchQueueFullSheds429(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	hash := responseHash(t, analyzeGraph(t, s, graphJSON(t, gen.Figure2())))

	arrived := make(chan struct{}, 4)
	release := make(chan struct{})
	s.gate = func() { arrived <- struct{}{}; <-release }
	defer close(release)

	reqBody := fmt.Sprintf(`{"hash":%q,"swaps":[]}`, hash)
	done := make(chan *httptest.ResponseRecorder, 2)
	go func() { done <- do(s, http.MethodPost, "/v1/reschedule", strings.NewReader(reqBody)) }()
	<-arrived // worker now holds request 1 at the gate
	go func() { done <- do(s, http.MethodPost, "/v1/reschedule", strings.NewReader(reqBody)) }()
	waitFor(t, "request 2 to occupy the queue slot", func() bool { return s.runner.Queued() == 1 })

	rr := doBatch(s, "", []byte(fmt.Sprintf(`{"hash":%q,"items":[{"swaps":[]}]}`, hash)))
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("batch under full queue: %d, want 429 (%s)", rr.Code, rr.Body.String())
	}
	// One priming analyze is not enough drain history for a rate estimate,
	// so the hint is the configured fallback — and always within [1, 30].
	got := rr.Header().Get("Retry-After")
	if secs, err := strconv.Atoi(got); err != nil || secs < 1 || secs > 30 {
		t.Errorf("Retry-After = %q, want an integer in [1, 30]", got)
	}
	if shed := s.met.shed.Value(); shed != 1 {
		t.Errorf("shed counter = %d, want 1", shed)
	}
}

// TestBatchCancelDuringDrainSingleTrailer is the double-flush audit's
// regression harness: a client disconnect and a graceful drain land on the
// same in-flight batch, and the response must still end with exactly one
// trailer whose truncation reason is deterministic — the dead request
// context ("client gone") outranks the drain, whichever order the two
// signals arrived in.
func TestBatchCancelDuringDrainSingleTrailer(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	hash := responseHash(t, analyzeGraph(t, s, graphJSON(t, gen.Figure2())))

	reached := make(chan struct{})
	release := make(chan struct{})
	s.itemGate = func(i int) {
		if i == 1 {
			close(reached)
			<-release
		}
	}
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/batch",
		strings.NewReader(fmt.Sprintf(
			`{"hash":%q,"items":[{"swaps":[]},{"swaps":[]},{"swaps":[]}]}`, hash)))
	req = req.WithContext(ctx)
	rr := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rr, req)
	}()

	<-reached      // item 0 computed; the worker is held before item 1
	cancel()       // client disconnects...
	s.BeginDrain() // ...while the server starts a graceful drain
	<-done         // handler must still finish without the worker released

	lines, trailer := parseNDJSON(t, rr.Body.Bytes())
	trailers := 0
	for _, l := range append(lines, trailer) {
		if l.Done {
			trailers++
		}
	}
	if trailers != 1 {
		t.Fatalf("%d trailer lines in response, want exactly 1:\n%s", trailers, rr.Body.String())
	}
	if !trailer.Truncated || trailer.Reason != "client gone" {
		t.Errorf("trailer = %+v, want truncated with reason \"client gone\" (deterministic precedence over draining)", trailer)
	}
	if trailer.Completed != len(lines) {
		t.Errorf("trailer completed=%d, but %d result lines were written", trailer.Completed, len(lines))
	}
}

// TestBatchMidCancelFlushesPartial is the truncation contract end to end:
// the client goes away mid-batch, and the response still carries every
// completed result line plus a trailer marking the truncation — the serving
// twin of miabench's "# TRUNCATED" CSV marker. The held worker drains
// cleanly afterwards (newTestServer's cleanup checks for goroutine leaks)
// and its warm analyzer is back in the LRU with the baseline intact.
func TestBatchMidCancelFlushesPartial(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	hash := responseHash(t, analyzeGraph(t, s, graphJSON(t, gen.Figure2())))

	reached := make(chan struct{})
	release := make(chan struct{})
	s.itemGate = func(i int) {
		if i == 2 {
			close(reached)
			<-release
		}
	}
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/batch",
		strings.NewReader(fmt.Sprintf(
			`{"hash":%q,"items":[{"swaps":[]},{"swaps":[{"core":2,"pos":0}]},{"swaps":[]},{"swaps":[]}]}`, hash)))
	req = req.WithContext(ctx)
	rr := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rr, req)
	}()

	<-reached // items 0 and 1 are computed; the worker is held before item 2
	cancel()  // client disconnects
	<-done    // the handler must finish without the worker being released

	lines, trailer := parseNDJSON(t, rr.Body.Bytes())
	if len(lines) != 2 {
		t.Fatalf("%d result lines flushed before truncation, want 2 (body %s)", len(lines), rr.Body.String())
	}
	for i, line := range lines {
		if line.Index != i || line.Status != http.StatusOK {
			t.Errorf("line %d: index %d status %d", i, line.Index, line.Status)
		}
	}
	if !trailer.Truncated || trailer.Completed != 2 || trailer.Items != 4 {
		t.Fatalf("trailer %+v, want truncated with 2/4 completed", trailer)
	}
	if trailer.Reason != "client gone" {
		t.Errorf("trailer reason %q, want \"client gone\"", trailer.Reason)
	}

	// Release the held worker; the interrupted batch drains on its own. The
	// warm analyzer survived it in the worker's LRU with the apply-evaluate-
	// undo baseline intact: an immediate unary reschedule serves warm and
	// reports the unedited fingerprint.
	release <- struct{}{}
	rr2 := do(s, http.MethodPost, "/v1/reschedule",
		strings.NewReader(fmt.Sprintf(`{"hash":%q,"swaps":[]}`, hash)))
	if rr2.Code != http.StatusOK {
		t.Fatalf("post-cancel reschedule: %d (%s)", rr2.Code, rr2.Body.String())
	}
	if got := rr2.Header().Get("X-Mia-Cache"); got != "hit" {
		t.Errorf("post-cancel reschedule X-Mia-Cache = %q, want \"hit\"", got)
	}
	if got := responseHash(t, rr2); got != hash {
		t.Errorf("post-cancel baseline hash %s, want %s (undo failed?)", got, hash)
	}
}

// TestBatchDeadlineTruncates: same truncation contract under deadline
// expiry instead of client disconnect.
func TestBatchDeadlineTruncates(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	hash := responseHash(t, analyzeGraph(t, s, graphJSON(t, gen.Figure2())))

	release := make(chan struct{})
	s.itemGate = func(i int) {
		if i == 1 {
			<-release
		}
	}
	defer close(release)

	req := httptest.NewRequest(http.MethodPost, "/v1/batch?timeout_ms=50",
		strings.NewReader(fmt.Sprintf(`{"hash":%q,"items":[{"swaps":[]},{"swaps":[]},{"swaps":[]}]}`, hash)))
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)

	lines, trailer := parseNDJSON(t, rr.Body.Bytes())
	if len(lines) != 1 || !trailer.Truncated || trailer.Reason != "deadline exceeded" {
		t.Fatalf("lines %d trailer %+v, want 1 line + deadline truncation", len(lines), trailer)
	}
}

// TestBatchMetrics: the batch counters, ingest split, items histogram, and
// streamed-bytes total all move and appear on /metrics.
func TestBatchMetrics(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	hash := responseHash(t, analyzeGraph(t, s, graphJSON(t, gen.Figure2())))
	rr := doBatch(s, "", []byte(fmt.Sprintf(`{"hash":%q,"items":[{"swaps":[]},{"swaps":[]}]}`, hash)))
	if rr.Code != http.StatusOK {
		t.Fatalf("batch: %d (%s)", rr.Code, rr.Body.String())
	}
	m := scrape(t, s.Handler())
	if m["requests.batch"] != "1" {
		t.Errorf("requests.batch = %s, want 1", m["requests.batch"])
	}
	if m["ingest.json"] != "1" { // the analyze that registered the graph
		t.Errorf("ingest.json = %s, want 1", m["ingest.json"])
	}
	if m["ingest.wire"] != "0" {
		t.Errorf("ingest.wire = %s, want 0", m["ingest.wire"])
	}
	if m["batch.items.le_10"] != "1" || m["batch.items.sum"] != "2" || m["batch.items.max"] != "2" {
		t.Errorf("items histogram le_10=%s sum=%s max=%s, want 1, 2 and 2",
			m["batch.items.le_10"], m["batch.items.sum"], m["batch.items.max"])
	}
	if n, _ := strconv.Atoi(m["batch.streamed_bytes"]); n <= 0 {
		t.Errorf("streamed_bytes = %s, want > 0", m["batch.streamed_bytes"])
	}
}
