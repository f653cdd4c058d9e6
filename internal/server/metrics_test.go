package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/mia-rt/mia/internal/regress"
	"github.com/mia-rt/mia/internal/shard"
)

// scrape GETs h's /metrics and flattens the JSON body into dotted key
// paths, each mapped to its leaf value as text: {"a":{"b":1}} reads as
// {"a.b": "1"}, and array elements are keyed by their index.
func scrape(t testing.TB, h http.Handler) map[string]string {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics: got %d (body %s)", rr.Code, rr.Body.String())
	}
	dec := json.NewDecoder(bytes.NewReader(rr.Body.Bytes()))
	dec.UseNumber()
	var body any
	if err := dec.Decode(&body); err != nil {
		t.Fatalf("decoding metrics: %v (body %s)", err, rr.Body.String())
	}
	out := map[string]string{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, c := range v {
				walk(path+"."+k, c)
			}
		case []any:
			for i, c := range v {
				walk(path+"."+strconv.Itoa(i), c)
			}
		default:
			out[path[1:]] = fmt.Sprint(v)
		}
	}
	walk("", body)
	return out
}

// TestNearestRank pins the quantile definition /metrics and miaload report
// (regress.NearestRank) at the sample sizes the old int(q·(n−1)) formula
// got wrong: n = 1 and 2 (where p95 and p99 must be the max, not the min)
// and the empty sample (0 by convention). n = 100 checks the textbook
// anchor points.
func TestNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1) // sorted 1..n
		}
		return out
	}
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty/p50", seq(0), 0.50, 0},
		{"empty/p99", seq(0), 0.99, 0},
		{"one/p50", seq(1), 0.50, 1},
		{"one/p99", seq(1), 0.99, 1},
		{"two/p50", seq(2), 0.50, 1},
		{"two/p95", seq(2), 0.95, 2},
		{"two/p99", seq(2), 0.99, 2}, // old formula returned 1 (the minimum)
		{"two/p100", seq(2), 1.00, 2},
		{"hundred/p50", seq(100), 0.50, 50},
		{"hundred/p95", seq(100), 0.95, 95},
		{"hundred/p99", seq(100), 0.99, 99},
		{"hundred/p100", seq(100), 1.00, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := regress.NearestRank(tc.sorted, tc.q); got != tc.want {
				t.Errorf("NearestRank(n=%d, q=%.2f) = %v, want %v", len(tc.sorted), tc.q, got, tc.want)
			}
		})
	}
}

// TestQuantilesWindow drives the ring end to end: two observations must
// yield p99 = max.
func TestQuantilesWindow(t *testing.T) {
	m := newMetrics(nil, nil)
	p50, p99, samples := m.quantiles()
	if p50 != 0 || p99 != 0 || samples != 0 {
		t.Errorf("empty window quantiles = (%v, %v, %d), want zeros", p50, p99, samples)
	}
	m.observeLatency(10 * time.Millisecond)
	m.observeLatency(90 * time.Millisecond)
	p50, p99, samples = m.quantiles()
	if samples != 2 || p50 != 10 || p99 != 90 {
		t.Errorf("two-sample quantiles = (p50=%v, p99=%v, n=%d), want (10, 90, 2)", p50, p99, samples)
	}
}

// TestRetryAfterSeconds pins the shed hint derivation: queued work over the
// drain rate, clamped to [1, 30], with the configured fallback when the
// rate is unknown.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		name     string
		queued   int
		rate     float64
		fallback time.Duration
		want     int
	}{
		{"no rate uses fallback", 10, 0, 3 * time.Second, 3},
		{"fallback clamped low", 10, 0, 0, 1},
		{"fallback clamped high", 10, 0, time.Hour, 30},
		{"fast drain clamps to 1", 4, 100, time.Second, 1},
		{"queue over rate", 9, 2, time.Second, 5}, // (9+1)/2
		{"rounds up", 10, 3, time.Second, 4},      // ceil(11/3)
		{"slow drain clamps to 30", 64, 0.1, time.Second, 30},
		{"empty queue still waits 1s", 0, 50, time.Second, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := retryAfterSeconds(tc.queued, tc.rate, tc.fallback); got != tc.want {
				t.Errorf("retryAfterSeconds(%d, %v, %v) = %d, want %d", tc.queued, tc.rate, tc.fallback, got, tc.want)
			}
		})
	}
}

// TestDrainRate: fewer than two completions is an unknown rate; a window of
// completions yields a positive one.
func TestDrainRate(t *testing.T) {
	m := newMetrics(nil, nil)
	now := time.Now()
	if r := m.drainRate(now); r != 0 {
		t.Errorf("drain rate with no completions = %v, want 0 (unknown)", r)
	}
	m.observeCompletion(now.Add(-time.Second))
	if r := m.drainRate(now); r != 0 {
		t.Errorf("drain rate with one completion = %v, want 0 (unknown)", r)
	}
	m.observeCompletion(now.Add(-500 * time.Millisecond))
	r := m.drainRate(now)
	if r < 1.9 || r > 2.1 { // 2 completions over the 1s since the oldest
		t.Errorf("drain rate = %v, want ~2/s", r)
	}
	// Overfill the ring: the rate must use only the window, not the total.
	for i := 0; i < 2*drainWindow; i++ {
		m.observeCompletion(now)
	}
	if r := m.drainRate(now.Add(time.Second)); r < float64(drainWindow)-1 || r > float64(drainWindow)+1 {
		t.Errorf("post-overfill drain rate = %v, want ~%d/s", r, drainWindow)
	}
}

// TestMetricsKeys pins the /metrics schema of a shard and of a router in
// front of two shards: their key paths, as scrape flattens them.
func TestMetricsKeys(t *testing.T) {
	shards, urls := newFleet(t, 2, Config{Workers: 1})
	router := newFleetRouter(t, urls, shard.Config{})
	target := func(i int) []string {
		p := "targets." + strconv.Itoa(i) + "."
		return []string{p + "healthy", p + "in_flight", p + "url"}
	}
	for _, tc := range []struct {
		name string
		h    http.Handler
		want []string
	}{
		{"shard", shards[0].srv.Handler(), []string{
			"batch.items.gt_1000", "batch.items.le_1", "batch.items.le_10", "batch.items.le_100",
			"batch.items.le_1000", "batch.items.max", "batch.items.sum", "batch.streamed_bytes",
			"cache.graphs", "cache.hits", "cache.misses",
			"in_flight",
			"ingest.json", "ingest.wire",
			"jobs.active", "jobs.completed", "jobs.front_size",
			"latency_ms.p50", "latency_ms.p99", "latency_ms.samples",
			"queue.capacity", "queue.completed", "queue.depth",
			"requests.analyze", "requests.batch", "requests.healthz", "requests.jobs",
			"requests.metrics", "requests.register", "requests.reschedule",
			"responses.2xx", "responses.4xx", "responses.5xx",
			"shed",
			"uptime_seconds",
		}},
		{"router", router.Handler(), append(append([]string{
			"batch_failovers", "forwarded", "lines_streamed", "no_shard",
			"replications", "retries", "shed",
		}, target(0)...), target(1)...)},
	} {
		m := scrape(t, tc.h)
		got := make([]string, 0, len(m))
		for k := range m {
			got = append(got, k)
		}
		slices.Sort(got)
		slices.Sort(tc.want)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s /metrics keys:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
