package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/mia-rt/mia/internal/server"
	"github.com/mia-rt/mia/internal/shard"
)

// fleet is the serving tier the benchmark drives, booted in-process on
// loopback exactly as miarouter and miaserve wire it: a shard.Router in
// front of two single-worker server.Server shards, each behind its own
// http.Server. When tracing is on every node's public Handler is wrapped in
// a timing span; the program itself is unchanged.
type fleet struct {
	url    string // router base URL
	router *shard.Router
	shards []*server.Server
	https  []*http.Server
	urls   []string // shard base URLs, in node order
	client *http.Client
	wg     sync.WaitGroup
}

// shardCount and the single worker per shard are the fleet shape the
// workloads are written for: two shards (one per core of the reference
// box) and a single-worker queue, so unary requests visibly queue behind
// batches.
const shardCount = 2

// shardAddrs are fixed loopback addresses for the shards. The router's
// ring hashes shard URLs, so fixed URLs make graph placement a function of
// the graph alone: the same seed puts the same graphs on the same shard in
// every run, and whatif-mixed can plan its placement in advance. Linux
// routes all of 127.0.0.0/8 to loopback.
var shardAddrs = []string{"127.0.0.2:47311", "127.0.0.3:47311"}

func shardURLs() []string {
	out := make([]string, len(shardAddrs))
	for i, a := range shardAddrs {
		out[i] = "http://" + a
	}
	return out
}

func bootFleet(tr *tracer) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < shardCount; i++ {
		s := server.New(server.Config{Workers: 1})
		f.shards = append(f.shards, s)
		url, err := f.serve(shardAddrs[i], tr.wrap(fmt.Sprintf("shard%d", i), s.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		f.urls = append(f.urls, url)
	}
	r, err := shard.NewRouter(context.Background(), shard.Config{Targets: f.urls, HealthEvery: 2 * time.Second})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = r
	if f.url, err = f.serve("127.0.0.1:0", tr.wrap("router", r.Handler())); err != nil {
		f.close()
		return nil, err
	}
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	return f, nil
}

// serve listens on addr, or on a free loopback port when addr is taken
// (placement then differs from the planned one, which costs stability but
// not correctness).
func (f *fleet) serve(addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s unavailable (%v); using a free port\n", addr, err)
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return "", err
		}
	}
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts the router down first, then the shards, and waits for every
// serve goroutine and shard worker to exit.
func (f *fleet) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.https) - 1; i >= 0; i-- { // router was served last
		f.https[i].Shutdown(ctx)
		if i == len(f.https)-1 && f.router != nil {
			f.router.Close()
		}
	}
	for _, s := range f.shards {
		s.Close()
	}
	f.wg.Wait()
}

// metrics fetches a node's /metrics JSON into v.
func (f *fleet) metrics(base string, v any) error {
	resp, err := f.client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/metrics: status %d", base, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fleetCounters are the /metrics counters the benchmark reads, summed over
// shards for the shard-side ones.
type fleetCounters struct {
	retries, failovers, noShard int64
	hits, misses, shed          int64
}

func (f *fleet) counters() (fleetCounters, error) {
	var c fleetCounters
	var rm struct {
		Retries        int64 `json:"retries"`
		BatchFailovers int64 `json:"batch_failovers"`
		NoShard        int64 `json:"no_shard"`
	}
	if err := f.metrics(f.url, &rm); err != nil {
		return c, err
	}
	c.retries, c.failovers, c.noShard = rm.Retries, rm.BatchFailovers, rm.NoShard
	for _, u := range f.urls {
		var sm struct {
			Cache struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"cache"`
			Shed int64 `json:"shed"`
		}
		if err := f.metrics(u, &sm); err != nil {
			return c, err
		}
		c.hits += sm.Cache.Hits
		c.misses += sm.Cache.Misses
		c.shed += sm.Shed
	}
	return c, nil
}

func (c fleetCounters) sub(o fleetCounters) fleetCounters {
	return fleetCounters{
		retries: c.retries - o.retries, failovers: c.failovers - o.failovers,
		noShard: c.noShard - o.noShard,
		hits:    c.hits - o.hits, misses: c.misses - o.misses, shed: c.shed - o.shed,
	}
}

// op is one client operation as the client saw it. Times are offsets from
// the tracer epoch (the same clock the spans use).
type op struct {
	kind     string // "analyze", "unary", "batch", "job", "register"
	path     string // request path as sent to the router
	start    time.Duration
	first    time.Duration // first reply line complete
	end      time.Duration // last reply byte read
	bodyHash uint64
	status   int
	cache    string // X-Mia-Cache reply header
	body     []byte // reply body
	bytes    int
	items    int // result items carried (batch lines, front updates, 1 otherwise)
	ref      int // workload-specific input index
	err      error
	failed   bool    // set by verification
	job      *jobRun // pareto-search: the job's constituent requests
}

func (o *op) latency() time.Duration { return o.end - o.start }

// do sends one request through the router and reads the reply to its last
// byte, timing the first line separately.
func (f *fleet) do(tr *tracer, method, path, contentType string, body []byte) *op {
	o := &op{path: path, bodyHash: bodyHash(body)}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, f.url+path, rd)
	if err != nil {
		o.err = err
		return o
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	o.start = tr.now()
	resp, err := f.client.Do(req)
	if err != nil {
		o.err = err
		o.end = tr.now()
		return o
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	o.cache = resp.Header.Get("X-Mia-Cache")
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var buf bytes.Buffer
	line, err := br.ReadSlice('\n')
	for err == bufio.ErrBufferFull {
		buf.Write(line)
		line, err = br.ReadSlice('\n')
	}
	buf.Write(line)
	o.first = tr.now()
	if err == nil {
		_, err = buf.ReadFrom(br)
	} else if err == io.EOF {
		err = nil
	}
	o.end = tr.now()
	o.body = buf.Bytes()
	o.bytes = buf.Len()
	o.items = 1
	o.err = err
	tr.record(o)
	return o
}

// bodyHash identifies a request body; the router forwards unary bodies
// verbatim and re-serializes hash-form batches byte-identically, so equal
// hashes join a client op, its router span and its shard spans.
func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
