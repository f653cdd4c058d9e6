package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newTestServer builds a server and registers a drain-plus-leak-check
// cleanup: after Close, the goroutine count must return to its pre-New
// baseline (small slack for runtime background goroutines).
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	baseline := runtime.NumGoroutine()
	s := New(cfg)
	t.Cleanup(func() {
		s.Close()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= baseline+2 {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Errorf("goroutine leak after Close: %d running, baseline %d", runtime.NumGoroutine(), baseline)
	})
	return s
}

func graphJSON(t testing.TB, g *model.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("serializing graph: %v", err)
	}
	return buf.Bytes()
}

func do(s *Server, method, target string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, body)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	return rr
}

func analyzeGraph(t testing.TB, s *Server, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rr := do(s, http.MethodPost, "/v1/analyze", bytes.NewReader(body))
	if rr.Code != http.StatusOK {
		t.Fatalf("analyze: got %d, want 200 (body %s)", rr.Code, rr.Body.String())
	}
	return rr
}

func responseHash(t testing.TB, rr *httptest.ResponseRecorder) string {
	t.Helper()
	var resp struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v (body %s)", err, rr.Body.String())
	}
	if resp.Hash == "" {
		t.Fatalf("response has no hash: %s", rr.Body.String())
	}
	return resp.Hash
}

// roundTrip pushes a graph through its JSON representation, the same path a
// posted graph takes, so fingerprints computed on local clones match the
// ones the server reports.
func roundTrip(t *testing.T, g *model.Graph) *model.Graph {
	t.Helper()
	rt, err := model.ReadJSON(bytes.NewReader(graphJSON(t, g)))
	if err != nil {
		t.Fatalf("round-tripping graph: %v", err)
	}
	return rt
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAnalyzeGolden(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	rr := analyzeGraph(t, s, graphJSON(t, gen.Figure1()))
	if got := rr.Header().Get("X-Mia-Cache"); got != "miss" {
		t.Errorf("first analyze X-Mia-Cache = %q, want \"miss\"", got)
	}
	golden := filepath.Join("testdata", "analyze_figure1.golden")
	if *update {
		if err := os.WriteFile(golden, rr.Body.Bytes(), 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(rr.Body.Bytes(), want) {
		t.Errorf("analyze response drifted from golden\n got: %s\nwant: %s", rr.Body.Bytes(), want)
	}
}

func TestAnalyzeWarmHitIsByteIdentical(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	body := graphJSON(t, gen.Figure1())
	cold := analyzeGraph(t, s, body)
	warm := analyzeGraph(t, s, body)
	if got := warm.Header().Get("X-Mia-Cache"); got != "hit" {
		t.Fatalf("second analyze X-Mia-Cache = %q, want \"hit\"", got)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Errorf("warm analyze differs from cold\ncold: %s\nwarm: %s", cold.Body.Bytes(), warm.Body.Bytes())
	}
	if hits := s.met.cacheHits.Value(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
}

// TestRescheduleWarmMatchesColdAnalyze is the differential acceptance test:
// a reschedule served from a warm checkpoint must be byte-identical to a
// cold analyze of the edited graph on a fresh server.
func TestRescheduleWarmMatchesColdAnalyze(t *testing.T) {
	g := roundTrip(t, gen.Figure2()) // no edges, so order swaps stay schedulable
	warmSrv := newTestServer(t, Config{Workers: 1})
	hash := responseHash(t, analyzeGraph(t, warmSrv, graphJSON(t, g)))

	reqBody := fmt.Sprintf(`{"hash":%q,"swaps":[{"core":2,"pos":0},{"core":3,"pos":1},{"core":0,"pos":1}]}`, hash)
	warm := do(warmSrv, http.MethodPost, "/v1/reschedule", strings.NewReader(reqBody))
	if warm.Code != http.StatusOK {
		t.Fatalf("reschedule: got %d (body %s)", warm.Code, warm.Body.String())
	}
	if got := warm.Header().Get("X-Mia-Cache"); got != "hit" {
		t.Errorf("reschedule X-Mia-Cache = %q, want \"hit\"", got)
	}
	if hits := warmSrv.met.cacheHits.Value(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}

	edited := g.Clone()
	edited.SwapOrder(2, 0)
	edited.SwapOrder(3, 1)
	edited.SwapOrder(0, 1)
	coldSrv := newTestServer(t, Config{Workers: 1})
	cold := analyzeGraph(t, coldSrv, graphJSON(t, edited))
	if got := cold.Header().Get("X-Mia-Cache"); got != "miss" {
		t.Errorf("cold analyze X-Mia-Cache = %q, want \"miss\"", got)
	}
	if !bytes.Equal(warm.Body.Bytes(), cold.Body.Bytes()) {
		t.Errorf("warm reschedule differs from cold analyze of edited graph\nwarm: %s\ncold: %s",
			warm.Body.Bytes(), cold.Body.Bytes())
	}
	if got, want := responseHash(t, warm), edited.Fingerprint(); got != want {
		t.Errorf("reschedule hash = %s, want edited-graph fingerprint %s", got, want)
	}
}

// TestRescheduleBaselineSurvivesEdits pins the apply-evaluate-undo contract:
// a reschedule must not corrupt the worker's baseline, so an analyze after a
// reschedule still returns the unedited graph's schedule.
func TestRescheduleBaselineSurvivesEdits(t *testing.T) {
	g := gen.Figure2()
	s := newTestServer(t, Config{Workers: 1})
	body := graphJSON(t, g)
	base := analyzeGraph(t, s, body)
	hash := responseHash(t, base)

	for i := 0; i < 3; i++ {
		reqBody := fmt.Sprintf(`{"hash":%q,"swaps":[{"core":2,"pos":1}]}`, hash)
		rr := do(s, http.MethodPost, "/v1/reschedule", strings.NewReader(reqBody))
		if rr.Code != http.StatusOK {
			t.Fatalf("reschedule %d: got %d (body %s)", i, rr.Code, rr.Body.String())
		}
	}
	again := analyzeGraph(t, s, body)
	if !bytes.Equal(base.Body.Bytes(), again.Body.Bytes()) {
		t.Errorf("analyze after reschedules differs from original\nfirst: %s\nafter: %s",
			base.Body.Bytes(), again.Body.Bytes())
	}
}

// TestConcurrentAnalyzeReschedule hammers one graph hash from many client
// goroutines across several workers; run under -race this doubles as the
// synchronization audit. Every response must be one of the two legal bodies.
func TestConcurrentAnalyzeReschedule(t *testing.T) {
	g := gen.Figure2()
	body := graphJSON(t, g)

	refSrv := newTestServer(t, Config{Workers: 1})
	wantBase := append([]byte(nil), analyzeGraph(t, refSrv, body).Body.Bytes()...)
	edited := g.Clone()
	edited.SwapOrder(2, 0)
	wantEdited := append([]byte(nil), analyzeGraph(t, refSrv, graphJSON(t, edited)).Body.Bytes()...)

	s := newTestServer(t, Config{Workers: 4, QueueDepth: 256})
	hash := responseHash(t, analyzeGraph(t, s, body))
	reqBody := fmt.Sprintf(`{"hash":%q,"swaps":[{"core":2,"pos":0}]}`, hash)

	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rr *httptest.ResponseRecorder
			var want []byte
			if i%2 == 0 {
				rr = do(s, http.MethodPost, "/v1/analyze", bytes.NewReader(body))
				want = wantBase
			} else {
				rr = do(s, http.MethodPost, "/v1/reschedule", strings.NewReader(reqBody))
				want = wantEdited
			}
			if rr.Code != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d (body %s)", i, rr.Code, rr.Body.String())
				return
			}
			if !bytes.Equal(rr.Body.Bytes(), want) {
				errs <- fmt.Errorf("client %d: body diverged\n got: %s\nwant: %s", i, rr.Body.Bytes(), want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestQueueFullShedsWith429(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	arrived := make(chan struct{}, 4)
	release := make(chan struct{})
	s.gate = func() { arrived <- struct{}{}; <-release }
	defer close(release)

	body := graphJSON(t, gen.Figure1())
	done := make(chan *httptest.ResponseRecorder, 2)
	go func() { done <- do(s, http.MethodPost, "/v1/analyze", bytes.NewReader(body)) }()
	<-arrived // worker now holds request 1 at the gate
	go func() { done <- do(s, http.MethodPost, "/v1/analyze", bytes.NewReader(body)) }()
	waitFor(t, "request 2 to occupy the queue slot", func() bool { return s.runner.Queued() == 1 })

	rr := do(s, http.MethodPost, "/v1/analyze", bytes.NewReader(body))
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("overload request: got %d, want 429 (body %s)", rr.Code, rr.Body.String())
	}
	// A cold server has no drain-rate history, so the hint falls back to the
	// configured RetryAfter; it must always be an integer within [1, 30].
	got := rr.Header().Get("Retry-After")
	if secs, err := strconv.Atoi(got); err != nil || secs < 1 || secs > 30 {
		t.Errorf("Retry-After = %q, want an integer in [1, 30]", got)
	} else if secs != 3 {
		t.Errorf("Retry-After = %d, want the configured fallback 3 (no completions observed yet)", secs)
	}
	if shed := s.met.shed.Value(); shed != 1 {
		t.Errorf("shed counter = %d, want 1", shed)
	}

	release <- struct{}{}
	<-arrived
	release <- struct{}{}
	for i := 0; i < 2; i++ {
		if rr := <-done; rr.Code != http.StatusOK {
			t.Errorf("held request %d: got %d, want 200 (body %s)", i, rr.Code, rr.Body.String())
		}
	}
}

func TestDeadlineExpiryAnswers504(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	s.gate = func() { <-release }

	body := graphJSON(t, gen.Figure1())
	rr := do(s, http.MethodPost, "/v1/analyze?timeout_ms=30", bytes.NewReader(body))
	close(release) // let the stuck job observe its dead context and finish
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired request: got %d, want 504 (body %s)", rr.Code, rr.Body.String())
	}
	var resp struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil || resp.Error == "" {
		t.Errorf("504 body should carry a JSON error, got %s", rr.Body.String())
	}
}

// TestOverflowingTimeoutFallsBackToDefault: a timeout_ms too large for a
// time.Duration is a malformed hint like any other, so the request runs
// under the default deadline. Converted unchecked, 1e13 ms wraps to a
// negative duration and 2^62 ms to zero, either of which expires at once.
func TestOverflowingTimeoutFallsBackToDefault(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	body := graphJSON(t, gen.Figure1())
	for _, ms := range []string{"10000000000000", "4611686018427387904", "abc", "-5"} {
		rr := do(s, http.MethodPost, "/v1/analyze?timeout_ms="+ms, bytes.NewReader(body))
		if rr.Code != http.StatusOK {
			t.Errorf("timeout_ms=%s: got %d, want 200 (body %s)", ms, rr.Code, rr.Body.String())
		}
	}
}

func TestDrainRejectsNewFinishesAdmitted(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	s.gate = func() { arrived <- struct{}{}; <-release }

	body := graphJSON(t, gen.Figure1())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- do(s, http.MethodPost, "/v1/analyze", bytes.NewReader(body)) }()
	<-arrived
	s.BeginDrain()

	if rr := do(s, http.MethodPost, "/v1/analyze", bytes.NewReader(body)); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("analyze during drain: got %d, want 503", rr.Code)
	}
	if rr := do(s, http.MethodPost, "/v1/analyze?register=1", bytes.NewReader(body)); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("register during drain: got %d, want 503", rr.Code)
	}
	if rr := do(s, http.MethodGet, "/healthz", nil); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: got %d, want 503 (body %s)", rr.Code, rr.Body.String())
	}

	close(release)
	if rr := <-done; rr.Code != http.StatusOK {
		t.Errorf("admitted request after drain: got %d, want 200 (body %s)", rr.Code, rr.Body.String())
	}
}

// Graph documents whose platform shape is past the decoder's limits: the
// 62-byte body asks for 10^12 cores, the other for a 10^12-bank demand row.
const (
	hugeCoresGraph = `{"cores": 1000000000000, "banks": 1, "tasks": [], "edges": []}`
	hugeBanksGraph = `{"cores": 1, "banks": 1000000000000, "tasks": [{"id": 0, "wcet": 1, "core": 0}], "edges": []}`
)

func TestBadInputs(t *testing.T) {
	g := gen.Figure2()
	s := newTestServer(t, Config{Workers: 1})
	hash := responseHash(t, analyzeGraph(t, s, graphJSON(t, g)))

	cases := []struct {
		name   string
		target string
		body   string
		want   int
	}{
		{"malformed graph", "/v1/analyze", "{", http.StatusBadRequest},
		{"invalid graph", "/v1/analyze", `{"cores":0,"banks":1}`, http.StatusBadRequest},
		// Shapes past the decoder's limits: each used to size a
		// terabyte allocation and kill the process.
		{"huge cores", "/v1/analyze", hugeCoresGraph, http.StatusBadRequest},
		{"huge banks", "/v1/analyze", hugeBanksGraph, http.StatusBadRequest},
		{"huge cores inline batch", "/v1/batch", `{"graph":` + hugeCoresGraph + `,"items":[{"swaps":[]}]}`, http.StatusBadRequest},
		{"huge banks inline job", "/v1/jobs", `{"graph":` + hugeBanksGraph + `}`, http.StatusBadRequest},
		{"trailing data", "/v1/analyze", `{"cores":1,"banks":1,"tasks":[],"edges":[]} trailing-garbage`, http.StatusBadRequest},
		{"malformed reschedule", "/v1/reschedule", "{", http.StatusBadRequest},
		{"unknown field", "/v1/reschedule", `{"hash":"x","moves":[]}`, http.StatusBadRequest},
		{"missing hash", "/v1/reschedule", `{"swaps":[]}`, http.StatusBadRequest},
		{"unknown hash", "/v1/reschedule", `{"hash":"deadbeef","swaps":[]}`, http.StatusNotFound},
		{"swap core out of range", "/v1/reschedule",
			fmt.Sprintf(`{"hash":%q,"swaps":[{"core":99,"pos":0}]}`, hash), http.StatusBadRequest},
		{"swap pos out of range", "/v1/reschedule",
			fmt.Sprintf(`{"hash":%q,"swaps":[{"core":2,"pos":7}]}`, hash), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := do(s, http.MethodPost, tc.target, strings.NewReader(tc.body))
			if rr.Code != tc.want {
				t.Errorf("got %d, want %d (body %s)", rr.Code, tc.want, rr.Body.String())
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		if rr := do(s, http.MethodGet, "/v1/analyze", nil); rr.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET analyze: got %d, want 405", rr.Code)
		}
	})

	t.Run("rejected swaps leave baseline intact", func(t *testing.T) {
		warm := do(s, http.MethodPost, "/v1/reschedule", strings.NewReader(fmt.Sprintf(`{"hash":%q,"swaps":[]}`, hash)))
		if warm.Code != http.StatusOK {
			t.Fatalf("no-op reschedule: got %d (body %s)", warm.Code, warm.Body.String())
		}
		if got := responseHash(t, warm); got != hash {
			t.Errorf("no-op reschedule hash = %s, want %s", got, hash)
		}
	})
}

// TestCycleErrorAgreesAcrossPaths sends one cyclic graph — tasks 0 and 1
// depend on each other, task 2 is a source — through every ingest path.
// All of them run the same acyclicity check, so all answer with the same
// model error and its true count, 2 of 3 tasks; the wire codec prefixes
// its errors with "wire: ", and a shard answers 400 with the text as is.
func TestCycleErrorAgreesAcrossPaths(t *testing.T) {
	const want = "model: dependency graph has a cycle (2 of 3 tasks unreachable from sources)"
	const doc = `{"cores":1,"banks":1,"tasks":[{"id":0,"wcet":1,"core":0},{"id":1,"wcet":1,"core":0},{"id":2,"wcet":1,"core":0}],` +
		`"edges":[{"from":0,"to":1,"words":1},{"from":1,"to":0,"words":1}]`
	noOrder, withOrder := doc+`}`, doc+`,"order":[[2,0,1]]}`
	blob := wire.Encode(&model.RawGraph{
		Cores: 1, Banks: 1,
		WCET: []model.Cycles{1, 1, 1}, MinRelease: make([]model.Cycles, 3),
		Core: make([]model.CoreID, 3), Local: make([]model.Accesses, 3),
		Demand:     []model.Accesses{1, 1, 0},
		Edges:      []model.Edge{{From: 0, To: 1, Words: 1}, {From: 1, To: 0, Words: 1}},
		OrderStart: []int32{0, 3}, OrderIDs: []model.TaskID{2, 0, 1},
		BankTable: []model.BankID{0},
	})
	s := newTestServer(t, Config{Workers: 1})
	served := func(contentType, body string) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, req)
		var resp struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil || rr.Code != http.StatusBadRequest {
			return fmt.Errorf("status %d, body %s", rr.Code, rr.Body.String())
		}
		return errors.New(resp.Error)
	}
	cases := []struct {
		path   string
		prefix string
		err    func() error
	}{
		{"Builder.Build", "", func() error {
			b := model.NewBuilder(1, 1)
			for i := 0; i < 3; i++ {
				b.AddTask(model.TaskSpec{WCET: 1})
			}
			b.AddEdge(0, 1, 1)
			b.AddEdge(1, 0, 1)
			_, err := b.Build()
			return err
		}},
		{"DecodeJSON without order", "", func() error { _, err := model.DecodeJSON([]byte(noOrder)); return err }},
		{"DecodeJSON with order", "", func() error { _, err := model.DecodeJSON([]byte(withOrder)); return err }},
		{"ReadJSON", "", func() error { _, err := model.ReadJSON(strings.NewReader(noOrder)); return err }},
		{"wire.Decode", "wire: ", func() error { _, err := wire.Decode(blob); return err }},
		{"shard JSON", "", func() error { return served("application/json", withOrder) }},
		{"shard wire", "wire: ", func() error { return served(wire.ContentType, string(blob)) }},
	}
	for _, tc := range cases {
		err := tc.err()
		if err == nil || err.Error() != tc.prefix+want {
			t.Errorf("%s: error %v, want %q", tc.path, err, tc.prefix+want)
		}
	}
}

func TestUnschedulableAnswers422(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Sched: sched.Options{Deadline: 1}})
	rr := do(s, http.MethodPost, "/v1/analyze", bytes.NewReader(graphJSON(t, gen.Figure1())))
	if rr.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unschedulable analyze: got %d, want 422 (body %s)", rr.Code, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), "unschedulable") {
		t.Errorf("422 body should name the verdict, got %s", rr.Body.String())
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 7})
	if rr := do(s, http.MethodGet, "/healthz", nil); rr.Code != http.StatusOK ||
		!strings.Contains(rr.Body.String(), `"ok"`) {
		t.Errorf("healthz: got %d body %s", rr.Code, rr.Body.String())
	}

	body := graphJSON(t, gen.Figure1())
	analyzeGraph(t, s, body)
	analyzeGraph(t, s, body) // may hit or miss depending on which worker serves it
	if rr := do(s, http.MethodPost, "/v1/analyze?register=1", bytes.NewReader(body)); rr.Code != http.StatusOK {
		t.Fatalf("register: got %d (body %s)", rr.Code, rr.Body.String())
	}

	m := scrape(t, s.Handler())
	if m["requests.analyze"] != "2" || m["requests.register"] != "1" {
		t.Errorf("requests.analyze = %s, requests.register = %s, want 2 and 1", m["requests.analyze"], m["requests.register"])
	}
	if m["requests.healthz"] != "1" {
		t.Errorf("requests.healthz = %s, want 1", m["requests.healthz"])
	}
	if n, _ := strconv.Atoi(m["responses.2xx"]); n < 4 {
		t.Errorf("responses.2xx = %s, want >= 4", m["responses.2xx"])
	}
	if m["queue.capacity"] != "7" {
		t.Errorf("queue.capacity = %s, want 7", m["queue.capacity"])
	}
	hits, _ := strconv.Atoi(m["cache.hits"])
	misses, _ := strconv.Atoi(m["cache.misses"])
	if hits+misses != 2 {
		t.Errorf("cache hits+misses = %d, want 2", hits+misses)
	}
	if m["cache.graphs"] != "1" {
		t.Errorf("cache.graphs = %s, want 1", m["cache.graphs"])
	}
	if m["latency_ms.samples"] != "2" {
		t.Errorf("latency samples = %s, want 2", m["latency_ms.samples"])
	}
}

func TestGraphCacheEvictionTurnsRescheduleInto404(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, GraphCacheSize: 1, WarmCacheSize: 1})
	hash1 := responseHash(t, analyzeGraph(t, s, graphJSON(t, gen.Figure1())))
	responseHash(t, analyzeGraph(t, s, graphJSON(t, gen.Figure2()))) // evicts Figure1 everywhere

	rr := do(s, http.MethodPost, "/v1/reschedule", strings.NewReader(fmt.Sprintf(`{"hash":%q,"swaps":[]}`, hash1)))
	if rr.Code != http.StatusNotFound {
		t.Errorf("reschedule of evicted hash: got %d, want 404 (body %s)", rr.Code, rr.Body.String())
	}
}
