// Command miaload load-tests a running miaserve or miarouter instance and
// reports a latency histogram — the measurement harness for the serving
// layer's two amortization levers: binary wire ingest (vs graph JSON) and
// batched edit evaluation (vs unary reschedules).
//
// It generates one layered task graph (the paper's evaluation shape),
// registers it with the target server, then drives one of three request
// mixes against it:
//
//	-mode analyze  repeat POST /v1/analyze of the same graph body
//	-mode unary    POST /v1/reschedule, one edit scenario per request
//	-mode batch    POST /v1/batch, -batch edit scenarios per request
//
// Every edit scenario is an identity pair — the same adjacent swap applied
// twice — so the evaluated orders equal the baseline and every scenario is
// schedulable by construction, while the server still pays the full
// apply-replay-undo cost. -wire switches the graph upload from JSON to the
// binary wire format (Content-Type wire.ContentType).
//
// Output is a human-readable summary or, with -json, a machine-readable
// report (p50/p95/p99/mean/max latency in milliseconds, throughput,
// response bytes, error count).
//
// A sharded fleet is load-tested through miarouter: -addr names the
// router, which places each graph's requests on its shards. Every request
// carries the graph's fingerprint in wire.RouteHeader, so the router need
// not decode a body to place it.
//
// Usage:
//
//	miaload -addr http://127.0.0.1:8080 -mode batch -batch 100 -requests 20
//	miaload -addr http://127.0.0.1:8080 -mode unary -wire -requests 200 -concurrency 8
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/regress"
	"github.com/mia-rt/mia/internal/wire"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "miaload:", err)
		os.Exit(1)
	}
}

// report is the -json output shape. Latencies are milliseconds.
type report struct {
	Mode        string  `json:"mode"`
	Wire        bool    `json:"wire"`
	Tasks       int     `json:"tasks"`
	Graphs      int     `json:"graphs,omitempty"`
	Requests    int     `json:"requests"`
	Batch       int     `json:"batch,omitempty"`
	Concurrency int     `json:"concurrency"`
	AnalyzeMs   float64 `json:"analyze_ms"`
	UploadBytes int     `json:"upload_bytes"`
	Latency     struct {
		P50  float64 `json:"p50"`
		P95  float64 `json:"p95"`
		P99  float64 `json:"p99"`
		Mean float64 `json:"mean"`
		Max  float64 `json:"max"`
	} `json:"latency_ms"`
	ItemsPerSec float64 `json:"items_per_sec"`
	BytesIn     int64   `json:"bytes_in"`
	Errors      int64   `json:"errors"`
	// Saturation-mode accounting: requests the service shed with 429 (plus
	// the Retry-After bounds it advertised) and requests it answered 503
	// for (drain). Zero outside -saturate.
	Shed           int64 `json:"shed,omitempty"`
	Drained        int64 `json:"drained,omitempty"`
	RetryAfterMinS int   `json:"retry_after_min_s,omitempty"`
	RetryAfterMaxS int   `json:"retry_after_max_s,omitempty"`
}

// loadGraph is one generated graph's client-side serving state: its upload
// body, canonical fingerprint (the routing hint), and the server-reported
// hash.
type loadGraph struct {
	fp    string
	hash  string
	body  string
	sites []swapSite
}

// swapSite is one identity-pair edit location (see package comment).
type swapSite struct{ core, pos int }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("miaload", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "http://127.0.0.1:8080", "base URL of the miaserve or miarouter instance under test")
		mode        = fs.String("mode", "unary", `request mix: "analyze", "unary" or "batch"`)
		useWire     = fs.Bool("wire", false, "upload the graph in binary wire format instead of JSON")
		tasks       = fs.Int("tasks", 512, "generated graph size (layers of 64 tasks on 16 cores)")
		graphs      = fs.Int("graphs", 1, "number of distinct graphs to spread the load over (seeds seed..seed+n-1)")
		requests    = fs.Int("requests", 100, "number of HTTP requests to issue")
		batch       = fs.Int("batch", 32, "edit scenarios per request in batch mode")
		concurrency = fs.Int("concurrency", 4, "concurrent client goroutines")
		seed        = fs.Int64("seed", 1, "graph generator seed")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-request client timeout")
		saturate    = fs.Bool("saturate", false, "overload mode: count 429/503 as shed/drained outcomes instead of errors, and check Retry-After stays within [1, 30] s")
		asJSON      = fs.Bool("json", false, "emit the report as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *mode {
	case "analyze", "unary", "batch":
	default:
		return fmt.Errorf("unknown -mode %q (want analyze, unary or batch)", *mode)
	}
	if *requests < 1 || *batch < 1 || *concurrency < 1 || *tasks < 64 || *graphs < 1 {
		return fmt.Errorf("need -requests, -batch, -concurrency, -graphs >= 1 and -tasks >= 64")
	}

	d := &driver{base: strings.TrimRight(*addr, "/"), client: &http.Client{Timeout: *timeout}, saturate: *saturate}

	// Generate and register the graphs (measuring the one-time ingest cost).
	contentType := "application/json"
	if *useWire {
		contentType = wire.ContentType
	}
	lgs := make([]*loadGraph, *graphs)
	var numTasks int
	var analyzeMs float64
	var primeBytes int64
	for gi := range lgs {
		p := gen.NewParams(*tasks/64, 64)
		p.Seed = *seed + int64(gi)
		g, err := gen.Layered(p)
		if err != nil {
			return err
		}
		var body []byte
		if *useWire {
			body = wire.EncodeGraph(g)
		} else {
			var buf bytes.Buffer
			if err := g.WriteJSON(&buf); err != nil {
				return err
			}
			body = buf.Bytes()
		}
		numTasks = g.NumTasks()
		lg := &loadGraph{fp: g.Fingerprint(), body: string(body)}
		// Identity-pair edit scenarios, rotated across the cores that have
		// at least two tasks mapped (a swap needs pos and pos+1).
		for k := 0; k < g.Cores; k++ {
			if ord := g.Order(model.CoreID(k)); len(ord) >= 2 {
				lg.sites = append(lg.sites, swapSite{core: k, pos: len(ord) - 2})
			}
		}
		if len(lg.sites) == 0 {
			return fmt.Errorf("generated graph %d has no core with >= 2 tasks", gi)
		}
		analyzeStart := time.Now()
		hash, n, err := d.analyze(ctx, contentType, body, lg.fp)
		if err != nil {
			return fmt.Errorf("priming analyze of graph %d: %w", gi, err)
		}
		lg.hash = hash
		primeBytes += int64(n)
		analyzeMs += float64(time.Since(analyzeStart)) / float64(time.Millisecond)
		lgs[gi] = lg
	}

	swapsFor := func(lg *loadGraph, i int) string {
		s := lg.sites[i%len(lg.sites)]
		one := fmt.Sprintf(`{"core":%d,"pos":%d}`, s.core, s.pos)
		return "[" + one + "," + one + "]"
	}
	reqBody := func(i int) (*loadGraph, string, string, string) { // graph, path, contentType, body
		lg := lgs[i%len(lgs)]
		switch *mode {
		case "analyze":
			return lg, "/v1/analyze", contentType, lg.body
		case "unary":
			return lg, "/v1/reschedule", "application/json",
				fmt.Sprintf(`{"hash":%q,"swaps":%s}`, lg.hash, swapsFor(lg, i))
		default: // batch
			items := make([]string, *batch)
			for j := range items {
				items[j] = `{"swaps":` + swapsFor(lg, i**batch+j) + `}`
			}
			return lg, "/v1/batch", "application/json",
				fmt.Sprintf(`{"hash":%q,"items":[%s]}`, lg.hash, strings.Join(items, ","))
		}
	}

	// Drive the load: fixed request count fanned over worker goroutines.
	lat := make([]float64, *requests)
	var errs, bytesIn atomic.Int64
	idx := make(chan int)
	var wg sync.WaitGroup
	loadStart := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				lg, path, ct, rb := reqBody(i)
				start := time.Now()
				nb, err := d.do(ctx, lg, path, ct, rb, *mode == "batch")
				lat[i] = float64(time.Since(start)) / float64(time.Millisecond)
				bytesIn.Add(nb)
				if err != nil {
					errs.Add(1)
				}
			}
		}()
	}
feed:
	for i := 0; i < *requests; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	elapsed := time.Since(loadStart)

	rep := report{
		Mode:        *mode,
		Wire:        *useWire,
		Tasks:       numTasks,
		Requests:    *requests,
		Concurrency: *concurrency,
		AnalyzeMs:   analyzeMs,
		UploadBytes: len(lgs[0].body),
		BytesIn:     bytesIn.Load() + primeBytes,
		Errors:      errs.Load(),
	}
	if *graphs > 1 {
		rep.Graphs = *graphs
	}
	if *mode == "batch" {
		rep.Batch = *batch
	}
	d.mu.Lock()
	rep.Shed, rep.Drained = d.shed, d.drained
	rep.RetryAfterMinS, rep.RetryAfterMaxS = d.raMin, d.raMax
	d.mu.Unlock()
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	rep.Latency.P50 = regress.NearestRank(sorted, 0.50)
	rep.Latency.P95 = regress.NearestRank(sorted, 0.95)
	rep.Latency.P99 = regress.NearestRank(sorted, 0.99)
	rep.Latency.Max = sorted[len(sorted)-1]
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	rep.Latency.Mean = sum / float64(len(sorted))
	items := *requests
	if *mode == "batch" {
		items *= *batch
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.ItemsPerSec = float64(items) / secs
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(&rep)
	}
	fmt.Fprintf(stdout, "miaload: mode=%s wire=%v tasks=%d requests=%d", rep.Mode, rep.Wire, rep.Tasks, rep.Requests)
	if *mode == "batch" {
		fmt.Fprintf(stdout, " batch=%d", rep.Batch)
	}
	fmt.Fprintf(stdout, " concurrency=%d\n", rep.Concurrency)
	fmt.Fprintf(stdout, "  upload     %d bytes (%s), priming analyze %.2f ms\n", rep.UploadBytes, contentType, rep.AnalyzeMs)
	fmt.Fprintf(stdout, "  latency ms p50=%.3f p95=%.3f p99=%.3f mean=%.3f max=%.3f\n",
		rep.Latency.P50, rep.Latency.P95, rep.Latency.P99, rep.Latency.Mean, rep.Latency.Max)
	fmt.Fprintf(stdout, "  throughput %.1f items/s, %d bytes in, %d errors\n", rep.ItemsPerSec, rep.BytesIn, rep.Errors)
	if *saturate {
		fmt.Fprintf(stdout, "  saturation shed=%d drained=%d retry-after=[%d, %d] s\n",
			rep.Shed, rep.Drained, rep.RetryAfterMinS, rep.RetryAfterMaxS)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", rep.Errors, rep.Requests)
	}
	return nil
}

// driver issues the load requests to one base URL, with saturation
// accounting when -saturate converts shed responses from errors into the
// measured outcome.
type driver struct {
	base     string
	client   *http.Client
	saturate bool

	mu           sync.Mutex
	shed         int64
	drained      int64
	raMin, raMax int // observed Retry-After bounds, seconds (0 = none seen)
}

// recordShed accounts one 429, validating the server's Retry-After hint:
// the serving contract promises a bounded hint in [1, 30] seconds, so a
// missing, non-integer, or out-of-range value is a protocol error even in
// saturation mode.
func (d *driver) recordShed(retryAfter string) error {
	secs, err := strconv.Atoi(strings.TrimSpace(retryAfter))
	if err != nil {
		return fmt.Errorf("shed response Retry-After %q is not an integer", retryAfter)
	}
	if secs < 1 || secs > 30 {
		return fmt.Errorf("shed response Retry-After %d s outside [1, 30]", secs)
	}
	d.mu.Lock()
	d.shed++
	if d.raMin == 0 || secs < d.raMin {
		d.raMin = secs
	}
	if secs > d.raMax {
		d.raMax = secs
	}
	d.mu.Unlock()
	return nil
}

// post sends one request for graph fingerprint fp.
func (d *driver) post(ctx context.Context, path, contentType, fp string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(wire.RouteHeader, fp)
	return d.client.Do(req)
}

// do issues one load request. A 429 counts as shed and a 503 (drain) as
// drained under -saturate, and fails the request otherwise. Other
// responses are validated by readResponse.
func (d *driver) do(ctx context.Context, lg *loadGraph, path, contentType, body string, isBatch bool) (int64, error) {
	resp, err := d.post(ctx, path, contentType, lg.fp, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		ra := resp.Header.Get("Retry-After")
		io.Copy(io.Discard, resp.Body)
		if !d.saturate {
			return 0, fmt.Errorf("shed (429, Retry-After %q)", ra)
		}
		return 0, d.recordShed(ra)
	case http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		if !d.saturate {
			return 0, errors.New("draining (503)")
		}
		d.mu.Lock()
		d.drained++
		d.mu.Unlock()
		return 0, nil
	}
	return readResponse(resp, isBatch)
}

// analyze registers the graph and returns its fingerprint and the reply's
// size.
func (d *driver) analyze(ctx context.Context, contentType string, body []byte, fp string) (string, int, error) {
	resp, err := d.post(ctx, "/v1/analyze", contentType, fp, bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("analyze: status %d body %s", resp.StatusCode, rb)
	}
	var r struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(rb, &r); err != nil || r.Hash == "" {
		return "", 0, fmt.Errorf("analyze response has no hash: %s", rb)
	}
	return r.Hash, len(rb), nil
}

// readResponse validates one 200 response's outcome: for batch responses a
// complete (untruncated) NDJSON stream whose every line carries status 200.
func readResponse(resp *http.Response, isBatch bool) (int64, error) {
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return int64(len(rb)), err
	}
	if resp.StatusCode != http.StatusOK {
		return int64(len(rb)), fmt.Errorf("status %d", resp.StatusCode)
	}
	if !isBatch {
		return int64(len(rb)), nil
	}
	for _, line := range strings.Split(strings.TrimRight(string(rb), "\n"), "\n") {
		var l struct {
			Status    int  `json:"status"`
			Done      bool `json:"done"`
			Truncated bool `json:"truncated"`
		}
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			return int64(len(rb)), err
		}
		if l.Done && l.Truncated {
			return int64(len(rb)), fmt.Errorf("batch truncated")
		}
		if !l.Done && l.Status != http.StatusOK {
			return int64(len(rb)), fmt.Errorf("item status %d", l.Status)
		}
	}
	return int64(len(rb)), nil
}
