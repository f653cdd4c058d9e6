package server

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyWindow bounds the rolling latency sample the quantiles are computed
// over. A ring of the most recent samples keeps /metrics O(window) and the
// quantiles responsive to load changes instead of averaging over the whole
// process lifetime.
const latencyWindow = 1024

// metrics holds the service counters exposed on /metrics. Counters are
// plain atomics (expvar-style: monotonic, scraped as a JSON snapshot);
// the latency ring is the only locked structure.
type metrics struct {
	start time.Time

	analyze     atomic.Int64
	register    atomic.Int64 // analyze requests with ?register=1
	reschedule  atomic.Int64
	batch       atomic.Int64
	jobs        atomic.Int64
	healthz     atomic.Int64
	metricsReqs atomic.Int64

	// Search-job lifecycle: active is a gauge of running jobs, completed
	// counts jobs that reached a terminal state (done, cancelled, or
	// failed), frontSize is a gauge of the most recently reported front's
	// cardinality.
	jobsActive    atomic.Int64
	jobsCompleted atomic.Int64
	jobsFrontSize atomic.Int64

	// Graph ingest path split: JSON decode+Compile vs binary wire fast path.
	ingestJSON atomic.Int64
	ingestWire atomic.Int64

	// streamedBytes totals the NDJSON bytes written by batch responses
	// (result lines and trailers, including truncated streams).
	streamedBytes atomic.Int64

	// items is the items-per-batch histogram: fixed decade buckets (≤1,
	// ≤10, ≤100, ≤1000, >1000) plus sum and max, enough to tell sweep-sized
	// batches from chatty unary-like usage without tracking quantiles.
	items struct {
		mu                               sync.Mutex
		le1, le10, le100, le1000, gt1000 int64
		sum, max                         int64
	}

	resp2xx atomic.Int64
	resp4xx atomic.Int64
	resp5xx atomic.Int64

	shed     atomic.Int64
	inFlight atomic.Int64

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

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

func newMetrics() *metrics {
	return &metrics{start: time.Now()}
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

// nearestRank returns the q-quantile of an already-sorted sample by the
// nearest-rank definition: the smallest element such that at least q·n of
// the sample is ≤ it, i.e. index ⌈q·n⌉−1. The previous form int(q·(n−1))
// truncated instead of rounding up, which underestimates on small samples —
// p99 of two samples returned the *minimum* — and an empty sample has no
// quantile, so it reports 0 by convention.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
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
	return nearestRank(window, 0.50), nearestRank(window, 0.99), samples
}

// metricsSnapshot is the /metrics response body. Field order is fixed by the
// struct, so scrapes are byte-stable for a given counter state.
type metricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      struct {
		Analyze    int64 `json:"analyze"`
		Register   int64 `json:"register"`
		Reschedule int64 `json:"reschedule"`
		Batch      int64 `json:"batch"`
		Jobs       int64 `json:"jobs"`
		Healthz    int64 `json:"healthz"`
		Metrics    int64 `json:"metrics"`
	} `json:"requests"`
	Jobs struct {
		Active    int64 `json:"active"`
		Completed int64 `json:"completed"`
		FrontSize int64 `json:"front_size"`
	} `json:"jobs"`
	Ingest struct {
		JSON int64 `json:"json"`
		Wire int64 `json:"wire"`
	} `json:"ingest"`
	Batch struct {
		Items struct {
			Le1    int64 `json:"le_1"`
			Le10   int64 `json:"le_10"`
			Le100  int64 `json:"le_100"`
			Le1000 int64 `json:"le_1000"`
			Gt1000 int64 `json:"gt_1000"`
			Sum    int64 `json:"sum"`
			Max    int64 `json:"max"`
		} `json:"items"`
		StreamedBytes int64 `json:"streamed_bytes"`
	} `json:"batch"`
	Responses struct {
		Class2xx int64 `json:"2xx"`
		Class4xx int64 `json:"4xx"`
		Class5xx int64 `json:"5xx"`
	} `json:"responses"`
	Shed     int64 `json:"shed"`
	InFlight int64 `json:"in_flight"`
	Queue    struct {
		Depth     int   `json:"depth"`
		Capacity  int   `json:"capacity"`
		Completed int64 `json:"completed"`
	} `json:"queue"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Graphs int   `json:"graphs"`
	} `json:"cache"`
	LatencyMs struct {
		P50     float64 `json:"p50"`
		P99     float64 `json:"p99"`
		Samples int64   `json:"samples"`
	} `json:"latency_ms"`
}

// snapshot assembles the scrape body. queueDepth/queueCap/completed/graphs
// are passed in by the server, which owns those structures.
func (m *metrics) snapshot(queueDepth, queueCap int, completed int64, graphs int) ([]byte, error) {
	var s metricsSnapshot
	s.UptimeSeconds = time.Since(m.start).Seconds()
	s.Requests.Analyze = m.analyze.Load()
	s.Requests.Register = m.register.Load()
	s.Requests.Reschedule = m.reschedule.Load()
	s.Requests.Batch = m.batch.Load()
	s.Requests.Jobs = m.jobs.Load()
	s.Requests.Healthz = m.healthz.Load()
	s.Requests.Metrics = m.metricsReqs.Load()
	s.Jobs.Active = m.jobsActive.Load()
	s.Jobs.Completed = m.jobsCompleted.Load()
	s.Jobs.FrontSize = m.jobsFrontSize.Load()
	s.Ingest.JSON = m.ingestJSON.Load()
	s.Ingest.Wire = m.ingestWire.Load()
	m.items.mu.Lock()
	s.Batch.Items.Le1 = m.items.le1
	s.Batch.Items.Le10 = m.items.le10
	s.Batch.Items.Le100 = m.items.le100
	s.Batch.Items.Le1000 = m.items.le1000
	s.Batch.Items.Gt1000 = m.items.gt1000
	s.Batch.Items.Sum = m.items.sum
	s.Batch.Items.Max = m.items.max
	m.items.mu.Unlock()
	s.Batch.StreamedBytes = m.streamedBytes.Load()
	s.Responses.Class2xx = m.resp2xx.Load()
	s.Responses.Class4xx = m.resp4xx.Load()
	s.Responses.Class5xx = m.resp5xx.Load()
	s.Shed = m.shed.Load()
	s.InFlight = m.inFlight.Load()
	s.Queue.Depth = queueDepth
	s.Queue.Capacity = queueCap
	s.Queue.Completed = completed
	s.Cache.Hits = m.cacheHits.Load()
	s.Cache.Misses = m.cacheMisses.Load()
	s.Cache.Graphs = graphs
	s.LatencyMs.P50, s.LatencyMs.P99, s.LatencyMs.Samples = m.quantiles()
	return json.Marshal(&s)
}
