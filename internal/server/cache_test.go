package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/wire"
)

// TestEvictionHammer is the -race regression for the eviction-vs-in-flight
// audit: warm caches of capacity 1 under concurrent analyze, reschedule, and
// batch traffic over more graphs than fit, so every worker evicts constantly
// while analyses are in flight. Under -race this fails if an eviction ever
// touches analyzer state a request is standing on.
func TestEvictionHammer(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 64, WarmCacheSize: 1})

	const graphs = 4
	type target struct {
		hash string
		body []byte
	}
	targets := make([]target, graphs)
	for i := range targets {
		p := gen.NewParams(1, 64)
		p.Seed = int64(i + 1)
		g, err := gen.Layered(p)
		if err != nil {
			t.Fatalf("generating graph %d: %v", i, err)
		}
		body := graphJSON(t, g)
		targets[i] = target{hash: responseHash(t, analyzeGraph(t, s, body)), body: body}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				tg := targets[(c+i)%graphs]
				var rr *httptest.ResponseRecorder
				switch i % 3 {
				case 0:
					rr = do(s, http.MethodPost, "/v1/analyze", bytes.NewReader(tg.body))
				case 1:
					rr = do(s, http.MethodPost, "/v1/reschedule",
						strings.NewReader(fmt.Sprintf(`{"hash":%q,"swaps":[{"core":0,"pos":0},{"core":0,"pos":0}]}`, tg.hash)))
				default:
					rr = do(s, http.MethodPost, "/v1/batch",
						strings.NewReader(fmt.Sprintf(`{"hash":%q,"items":[{"swaps":[]},{"swaps":[{"core":0,"pos":0},{"core":0,"pos":0}]}]}`, tg.hash)))
				}
				if rr.Code != http.StatusOK {
					errs <- fmt.Errorf("client %d request %d: status %d (%s)", c, i, rr.Code, rr.Body.String())
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBatchSurvivesRegistryEviction: a batch is evaluated against the image
// its handler resolved, not re-read from the registry on the worker. One
// worker holds an inline-graph batch at the gate while a second graph's
// analyze displaces the first from a one-slot registry; once released,
// every item must still answer 200, for the JSON and the wire body alike.
func TestBatchSurvivesRegistryEviction(t *testing.T) {
	first := gen.Figure2()
	firstJSON, secondJSON := graphJSON(t, first), graphJSON(t, gen.Figure1())
	img, err := engine.CompileJSON(firstJSON, sched.Options{})
	if err != nil {
		t.Fatalf("compiling: %v", err)
	}
	hash := img.Fingerprint()
	const items = `[{"swaps":[]},{"swaps":[{"core":2,"pos":0}]},{"swaps":[{"core":3,"pos":1},{"core":0,"pos":1}]}]`
	bodies := []struct {
		name, contentType string
		body              []byte
	}{
		{"json", "", []byte(fmt.Sprintf(`{"graph":%s,"items":%s}`, firstJSON, items))},
		{"wire", wire.ContentType, append(wire.EncodeGraph(roundTrip(t, first)), `{"items":`+items+`}`...)},
	}
	for _, tc := range bodies {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{Workers: 1, GraphCacheSize: 1})
			arrived := make(chan struct{}, 4)
			release := make(chan struct{})
			s.gate = func() { arrived <- struct{}{}; <-release }

			batch := make(chan *httptest.ResponseRecorder, 1)
			go func() { batch <- doBatch(s, tc.contentType, tc.body) }()
			<-arrived // the worker holds the batch; its graph is registered
			analyzed := make(chan *httptest.ResponseRecorder, 1)
			go func() { analyzed <- do(s, http.MethodPost, "/v1/analyze", bytes.NewReader(secondJSON)) }()
			waitFor(t, "the second graph's analyze to queue", func() bool { return s.runner.Queued() == 1 })
			if _, ok := s.images.get(hash); ok {
				t.Fatal("the one-slot registry still holds the first graph")
			}
			close(release)

			rr := <-batch
			if rr.Code != http.StatusOK {
				t.Fatalf("batch: %d (%s)", rr.Code, rr.Body.String())
			}
			lines, trailer := parseNDJSON(t, rr.Body.Bytes())
			if trailer.Truncated || len(lines) != 3 {
				t.Fatalf("trailer %+v with %d lines, want 3 untruncated", trailer, len(lines))
			}
			for _, line := range lines {
				if line.Status != http.StatusOK {
					t.Errorf("item %d: status %d (%s), want 200", line.Index, line.Status, line.Error)
				}
			}
			var res struct {
				Hash string `json:"hash"`
			}
			if err := json.Unmarshal(lines[0].Result, &res); err != nil || res.Hash != hash {
				t.Errorf("zero-swap item hash %q (%v), want the first graph's %s", res.Hash, err, hash)
			}
			if rr := <-analyzed; rr.Code != http.StatusOK {
				t.Errorf("second analyze: %d (%s)", rr.Code, rr.Body.String())
			}
		})
	}
}

// TestShardIgnoresParallelism: the shard clears Sched.Parallelism. A server
// asked for four intra-analysis workers on a graph wide enough for the
// parallel exchange to spawn them answers analyze, reschedule and batch
// byte-identically to a default server, and after Close no goroutine of
// its cached analyzers survives.
func TestShardIgnoresParallelism(t *testing.T) {
	g, err := gen.Layered(gen.NewParams(4, 16)) // 16 cores, 16 tasks per layer
	if err != nil {
		t.Fatalf("generating graph: %v", err)
	}
	// Each core runs one task per layer, and every edge joins consecutive
	// layers, so swapping two adjacent tasks of a core keeps the graph
	// schedulable exactly when no edge joins them.
	var swaps []string
	for k := 0; k < g.Cores; k++ {
		order := g.Order(model.CoreID(k))
		if !slices.Contains(g.Successors(order[0]), order[1]) {
			swaps = append(swaps, fmt.Sprintf(`[{"core":%d,"pos":0}]`, k))
		}
	}
	if len(swaps) < 2 {
		t.Fatalf("found %d legal swaps, want at least 2", len(swaps))
	}
	body := graphJSON(t, g)
	replies := func(s *Server) [][]byte {
		hash := responseHash(t, analyzeGraph(t, s, body))
		var out [][]byte
		for _, rr := range []*httptest.ResponseRecorder{
			do(s, http.MethodPost, "/v1/analyze", bytes.NewReader(body)),
			do(s, http.MethodPost, "/v1/reschedule", strings.NewReader(fmt.Sprintf(`{"hash":%q,"swaps":%s}`, hash, swaps[0]))),
			doBatch(s, "", []byte(fmt.Sprintf(`{"hash":%q,"items":[{"swaps":[]},{"swaps":%s},{"swaps":%s}]}`, hash, swaps[0], swaps[1]))),
		} {
			if rr.Code != http.StatusOK {
				t.Fatalf("status %d (%s)", rr.Code, rr.Body.String())
			}
			out = append(out, rr.Body.Bytes())
		}
		return out
	}
	want := replies(newTestServer(t, Config{Workers: 1}))

	baseline := runtime.NumGoroutine()
	s := New(Config{Workers: 1, Sched: sched.Options{Parallelism: 4}})
	got := replies(s)
	s.Close()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("reply %d differs from the default server's\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
	waitFor(t, "goroutines to return to baseline after Close", func() bool { return runtime.NumGoroutine() <= baseline })
}
