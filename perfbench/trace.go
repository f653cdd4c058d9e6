package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one request as a fleet node handled it: the wrapped Handler's
// entry to its return. Handlers return after their last write, so a
// streamed reply's span covers the whole stream.
type span struct {
	Node     string        `json:"node"` // "router", "shard0", "shard1"
	Method   string        `json:"method"`
	Path     string        `json:"path"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	BodyHash uint64        `json:"body_hash"`
	Status   int           `json:"status"`
	Bytes    int64         `json:"bytes"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory. Its clock is shared with the client ops,
// so client, router and shard intervals compare directly. With on unset it
// wraps nothing and costs one time.Since per client op.
type tracer struct {
	epoch time.Time
	on    bool

	mu    sync.Mutex
	spans []span
	ops   []*op // every HTTP request the clients sent, while on
}

func newTracer(on bool) *tracer { return &tracer{epoch: time.Now(), on: on} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// wrap times every request node serves. The body is read up front so its
// hash can join the span to the client op and the router's forward; the
// handler then reads the same bytes from memory.
func (t *tracer) wrap(node string, h http.Handler) http.Handler {
	if !t.on {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := span{Node: node, Method: r.Method, Path: r.URL.Path, Start: t.now()}
		if r.Body != nil {
			body, err := io.ReadAll(r.Body)
			r.Body.Close()
			if err == nil {
				s.BodyHash = bodyHash(body)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(cw, r)
		s.End = t.now()
		s.Status, s.Bytes = cw.status, cw.n
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	})
}

// countingWriter counts reply bytes and keeps the Flusher the shards'
// streaming paths type-assert for.
type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// record keeps a finished client request for span joining.
func (t *tracer) record(o *op) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.ops = append(t.ops, o)
	t.mu.Unlock()
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.ops = nil, nil
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far, ordered by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeSpans writes every span, then every client op, as JSON lines.
func writeSpans(path string, spans []span, ops []*op) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, o := range ops {
		rec := struct {
			Kind     string        `json:"kind"`
			Path     string        `json:"path"`
			Start    time.Duration `json:"start_ns"`
			First    time.Duration `json:"first_ns"`
			End      time.Duration `json:"end_ns"`
			BodyHash uint64        `json:"body_hash"`
			Status   int           `json:"status"`
		}{o.kind, o.path, o.start, o.first, o.end, o.bodyHash, o.status}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// joined is one client op with the spans it caused: the router span that
// served it and the shard spans that router span forwarded to (serving
// shard first, then replicas).
type joined struct {
	op     *op
	router *span
	shards []*span
}

// join correlates client ops with router spans and router spans with shard
// spans without any request header: the router forwards a request's body
// unchanged (or, for hash-form batches, re-serialized byte-identically), so
// a child has the parent's path and body hash and lies inside the parent's
// interval. Job streams carry no body; the job id in the path makes them
// unique. Each span is claimed at most once.
func join(ops []*op, spans []span) []joined {
	used := make([]bool, len(spans))
	claim := func(node func(string) bool, path string, hash uint64, from, to time.Duration) *span {
		for i := range spans {
			s := &spans[i]
			if used[i] || !node(s.Node) || s.Path != path || s.BodyHash != hash {
				continue
			}
			if s.Start >= from && s.End <= to {
				used[i] = true
				return s
			}
		}
		return nil
	}
	isRouter := func(n string) bool { return n == "router" }
	isShard := func(n string) bool { return n != "router" }
	out := make([]joined, 0, len(ops))
	for _, o := range ops {
		j := joined{op: o}
		j.router = claim(isRouter, o.path, o.bodyHash, o.start, o.end)
		if j.router != nil {
			for {
				s := claim(isShard, o.path, o.bodyHash, j.router.Start, j.router.End)
				if s == nil {
					break
				}
				j.shards = append(j.shards, s)
			}
			sort.Slice(j.shards, func(a, b int) bool { return j.shards[a].Start < j.shards[b].Start })
		}
		out = append(out, j)
	}
	return out
}

// unionWithin is the length of the union of the given intervals clipped to
// [lo, hi].
func unionWithin(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	var cl [][2]time.Duration
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			cl = append(cl, [2]time.Duration{a, b})
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i][0] < cl[j][0] })
	var total, curA, curB time.Duration
	for i, iv := range cl {
		if i == 0 || iv[0] > curB {
			total += curB - curA
			curA, curB = iv[0], iv[1]
			continue
		}
		if iv[1] > curB {
			curB = iv[1]
		}
	}
	if len(cl) > 0 {
		total += curB - curA
	}
	return total
}

// routerSplit splits a router span's self time (its interval minus the
// union of its shard spans) at the serving shard's start: before it the
// router reads, fingerprints and places the request; after it the router
// relays the reply (and, for analyze, replicates it).
func routerSplit(j joined) (self, relay time.Duration) {
	r := j.router
	ivs := make([][2]time.Duration, len(j.shards))
	for i, s := range j.shards {
		ivs[i] = [2]time.Duration{s.Start, s.End}
	}
	self = r.dur() - unionWithin(r.Start, r.End, ivs)
	if len(j.shards) == 0 {
		return self, 0
	}
	from := j.shards[0].Start
	relay = (r.End - from) - unionWithin(from, r.End, ivs)
	return self, relay
}

// overlapWait is the part of s that overlaps requests which reached the
// same shard before it did: a shard admits in arrival order onto one
// worker, so that is time s could have spent queued behind them. (A
// request that arrived later queues behind s, not the other way round.)
func overlapWait(s *span, spans []span) time.Duration {
	var ivs [][2]time.Duration
	for i := range spans {
		o := &spans[i]
		if o == s || o.Node != s.Node || o.Path == "/healthz" || o.Path == "/metrics" {
			continue
		}
		if o.Start < s.Start && o.End > s.Start {
			ivs = append(ivs, [2]time.Duration{o.Start, o.End})
		}
	}
	return unionWithin(s.Start, s.End, ivs)
}
