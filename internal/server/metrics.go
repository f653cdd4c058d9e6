package server

import (
	"expvar"
	"sort"
	"sync"
	"time"

	"github.com/mia-rt/mia/internal/pool"
	"github.com/mia-rt/mia/internal/regress"
)

// latencyWindow bounds the rolling latency sample the quantiles are computed
// over. A ring of the most recent samples keeps /metrics O(window) and the
// quantiles responsive to load changes instead of averaging over the whole
// process lifetime.
const latencyWindow = 1024

// metrics holds the service counters exposed on /metrics. Counters are
// expvar.Ints in one private expvar.Map tree, vars, which /metrics serves
// as is; the server's gauges and the latency and items summaries are
// expvar.Funcs read at scrape time. Nothing is published to expvar's
// process-wide registry, so several servers can share a process. The
// latency ring and the items histogram are the only locked structures.
type metrics struct {
	vars expvar.Map

	analyze     expvar.Int
	register    expvar.Int // analyze requests with ?register=1
	reschedule  expvar.Int
	batch       expvar.Int
	jobs        expvar.Int
	healthz     expvar.Int
	metricsReqs expvar.Int

	// Search-job lifecycle: active is a gauge of running jobs, completed
	// counts jobs that reached a terminal state (done, cancelled, or
	// failed), frontSize is a gauge of the most recently reported front's
	// cardinality.
	jobsActive    expvar.Int
	jobsCompleted expvar.Int
	jobsFrontSize expvar.Int

	// Graph ingest path split: JSON decode+Compile vs binary wire fast path.
	ingestJSON expvar.Int
	ingestWire expvar.Int

	// streamedBytes totals the NDJSON bytes written by batch responses
	// (result lines and trailers, including truncated streams).
	streamedBytes expvar.Int

	// items is the items-per-batch histogram: fixed decade buckets (≤1,
	// ≤10, ≤100, ≤1000, >1000) plus sum and max, enough to tell sweep-sized
	// batches from chatty unary-like usage without tracking quantiles.
	items struct {
		mu                               sync.Mutex
		le1, le10, le100, le1000, gt1000 int64
		sum, max                         int64
	}

	resp2xx expvar.Int
	resp4xx expvar.Int
	resp5xx expvar.Int

	shed     expvar.Int
	inFlight expvar.Int

	cacheHits   expvar.Int
	cacheMisses expvar.Int

	lat struct {
		mu    sync.Mutex
		ring  [latencyWindow]float64 // milliseconds
		next  int
		total int64
	}

	// done is the completion-timestamp ring behind drainRate: the shed
	// path's Retry-After hint is derived from how fast the queue has
	// actually been draining, so it needs the recent completion times, not
	// just a count.
	done struct {
		mu    sync.Mutex
		ring  [drainWindow]time.Time
		next  int
		total int64
	}
}

// drainWindow bounds the completion-timestamp sample behind drainRate.
// Smaller than latencyWindow on purpose: the Retry-After hint should track
// the *current* drain speed, and 64 completions of history is seconds of
// traffic at any load level where shedding happens.
const drainWindow = 64

// newMetrics builds the counters and their /metrics tree. runner and
// images own the queue and registry gauges, read at scrape time.
func newMetrics(runner *pool.Runner[*worker], images *imageCache) *metrics {
	m := &metrics{}
	start := time.Now()
	m.vars.Set("uptime_seconds", expvar.Func(func() any { return time.Since(start).Seconds() }))
	m.vars.Set("requests", tree(map[string]expvar.Var{
		"analyze": &m.analyze, "register": &m.register, "reschedule": &m.reschedule,
		"batch": &m.batch, "jobs": &m.jobs, "healthz": &m.healthz, "metrics": &m.metricsReqs,
	}))
	m.vars.Set("jobs", tree(map[string]expvar.Var{
		"active": &m.jobsActive, "completed": &m.jobsCompleted, "front_size": &m.jobsFrontSize,
	}))
	m.vars.Set("ingest", tree(map[string]expvar.Var{"json": &m.ingestJSON, "wire": &m.ingestWire}))
	m.vars.Set("batch", tree(map[string]expvar.Var{
		"items": expvar.Func(m.itemsSummary), "streamed_bytes": &m.streamedBytes,
	}))
	m.vars.Set("responses", tree(map[string]expvar.Var{"2xx": &m.resp2xx, "4xx": &m.resp4xx, "5xx": &m.resp5xx}))
	m.vars.Set("shed", &m.shed)
	m.vars.Set("in_flight", &m.inFlight)
	m.vars.Set("queue", tree(map[string]expvar.Var{
		"depth":     expvar.Func(func() any { return runner.Queued() }),
		"capacity":  expvar.Func(func() any { return runner.Capacity() }),
		"completed": expvar.Func(func() any { return runner.Completed() }),
	}))
	m.vars.Set("cache", tree(map[string]expvar.Var{
		"hits": &m.cacheHits, "misses": &m.cacheMisses,
		"graphs": expvar.Func(func() any { return images.len() }),
	}))
	m.vars.Set("latency_ms", expvar.Func(func() any {
		p50, p99, samples := m.quantiles()
		return map[string]any{"p50": p50, "p99": p99, "samples": samples}
	}))
	return m
}

// tree returns a Map holding vars (expvar keeps a Map's keys sorted).
func tree(vars map[string]expvar.Var) *expvar.Map {
	m := new(expvar.Map)
	for k, v := range vars {
		m.Set(k, v)
	}
	return m
}

// observeLatency records one analyze/reschedule request duration.
func (m *metrics) observeLatency(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	m.lat.mu.Lock()
	m.lat.ring[m.lat.next] = ms
	m.lat.next = (m.lat.next + 1) % latencyWindow
	m.lat.total++
	m.lat.mu.Unlock()
}

// observeCompletion records that one queued unit of work finished at t.
func (m *metrics) observeCompletion(t time.Time) {
	m.done.mu.Lock()
	m.done.ring[m.done.next] = t
	m.done.next = (m.done.next + 1) % drainWindow
	m.done.total++
	m.done.mu.Unlock()
}

// drainRate estimates the service's recent completion throughput in units
// per second, measured from the oldest completion in the window to now. It
// returns 0 when there are fewer than two completions or the window spans no
// measurable time — callers must treat 0 as "rate unknown", not "infinitely
// slow".
func (m *metrics) drainRate(now time.Time) float64 {
	m.done.mu.Lock()
	n := int(m.done.total)
	if n > drainWindow {
		n = drainWindow
	}
	var oldest time.Time
	if n > 0 {
		i := m.done.next - n
		if i < 0 {
			i += drainWindow
		}
		oldest = m.done.ring[i]
	}
	m.done.mu.Unlock()
	if n < 2 {
		return 0
	}
	span := now.Sub(oldest).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(n) / span
}

// observeBatchItems records one batch request's scenario count.
func (m *metrics) observeBatchItems(n int) {
	m.items.mu.Lock()
	switch {
	case n <= 1:
		m.items.le1++
	case n <= 10:
		m.items.le10++
	case n <= 100:
		m.items.le100++
	case n <= 1000:
		m.items.le1000++
	default:
		m.items.gt1000++
	}
	m.items.sum += int64(n)
	if int64(n) > m.items.max {
		m.items.max = int64(n)
	}
	m.items.mu.Unlock()
}

// itemsSummary is the items histogram as /metrics reports it.
func (m *metrics) itemsSummary() any {
	m.items.mu.Lock()
	defer m.items.mu.Unlock()
	return map[string]int64{
		"le_1": m.items.le1, "le_10": m.items.le10, "le_100": m.items.le100,
		"le_1000": m.items.le1000, "gt_1000": m.items.gt1000,
		"sum": m.items.sum, "max": m.items.max,
	}
}

// countResponse tallies a response by status class.
func (m *metrics) countResponse(status int) {
	switch {
	case status >= 500:
		m.resp5xx.Add(1)
	case status >= 400:
		m.resp4xx.Add(1)
	default:
		m.resp2xx.Add(1)
	}
}

// quantiles computes p50/p99 over the current latency window.
func (m *metrics) quantiles() (p50, p99 float64, samples int64) {
	m.lat.mu.Lock()
	n := int(m.lat.total)
	if n > latencyWindow {
		n = latencyWindow
	}
	window := make([]float64, n)
	copy(window, m.lat.ring[:n])
	samples = m.lat.total
	m.lat.mu.Unlock()
	sort.Float64s(window)
	return regress.NearestRank(window, 0.50), regress.NearestRank(window, 0.99), samples
}
