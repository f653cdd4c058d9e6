package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"testing"

	"github.com/mia-rt/mia/internal/regress"
	"github.com/mia-rt/mia/internal/server"
	"github.com/mia-rt/mia/internal/shard"
)

// startServer boots an in-process miaserve core behind httptest, so the
// client-side harness is exercised over a real HTTP stack without execing a
// binary (the servesmoke-tagged test covers the binary).
func startServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func runLoad(t *testing.T, addr string, extra ...string) report {
	t.Helper()
	args := append([]string{
		"-addr", addr, "-tasks", "128", "-requests", "6",
		"-concurrency", "2", "-json",
	}, extra...)
	var out bytes.Buffer
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("miaload %v: %v\noutput: %s", args, err, out.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("decoding report: %v\noutput: %s", err, out.String())
	}
	return rep
}

func TestLoadModes(t *testing.T) {
	ts := startServer(t)
	for _, mode := range []string{"analyze", "unary", "batch"} {
		for _, useWire := range []bool{false, true} {
			t.Run(mode+"/wire="+strconv.FormatBool(useWire), func(t *testing.T) {
				extra := []string{"-mode", mode, "-batch", "4"}
				if useWire {
					extra = append(extra, "-wire")
				}
				rep := runLoad(t, ts.URL, extra...)
				if rep.Errors != 0 {
					t.Fatalf("report has %d errors", rep.Errors)
				}
				if rep.Requests != 6 || rep.Mode != mode || rep.Wire != useWire {
					t.Errorf("report header %+v, want 6 %s requests (wire=%v)", rep, mode, useWire)
				}
				if rep.Latency.P50 <= 0 || rep.Latency.Max < rep.Latency.P50 {
					t.Errorf("degenerate latency histogram %+v", rep.Latency)
				}
				if rep.ItemsPerSec <= 0 || rep.BytesIn <= 0 {
					t.Errorf("throughput %.1f items/s, %d bytes in: want > 0", rep.ItemsPerSec, rep.BytesIn)
				}
				if mode == "batch" && rep.Batch != 4 {
					t.Errorf("report batch %d, want 4", rep.Batch)
				}
			})
		}
	}
}

// TestQuantile pins the nearest-rank definition miaload's report reads its
// latency quantiles with (regress.NearestRank) at the sample sizes the old
// int(q·(n−1)) formula underestimated: n = 1 and 2 (p99 must be the max,
// not the min), the empty sample (0 by convention), and n = 100 anchors.
func TestQuantile(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	cases := []struct {
		n    int
		q    float64
		want float64
	}{
		{0, 0.50, 0},
		{0, 0.99, 0},
		{1, 0.50, 1},
		{1, 0.99, 1},
		{2, 0.50, 1},
		{2, 0.95, 2}, // old formula returned 1 (the minimum)
		{2, 0.99, 2},
		{2, 1.00, 2},
		{100, 0.50, 50},
		{100, 0.95, 95},
		{100, 0.99, 99},
		{100, 1.00, 100},
	}
	for _, tc := range cases {
		if got := regress.NearestRank(seq(tc.n), tc.q); got != tc.want {
			t.Errorf("NearestRank(n=%d, q=%.2f) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

// startRouter boots an in-process miarouter core over targets behind
// httptest. Health is passive: a shard is marked down by its first failed
// request.
func startRouter(t *testing.T, targets ...string) *httptest.Server {
	t.Helper()
	r, err := shard.NewRouter(context.Background(), shard.Config{Targets: targets})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		ts.Close()
		r.Close()
	})
	return ts
}

// TestLoadShardTargets drives a fleet end to end: three in-process shards
// behind an in-process router, several graphs spread across the fleet.
// Every request must land successfully: the router places each graph's
// requests by fingerprint and replicates its analyze, so a routing
// disagreement would surface as a 404 error here.
func TestLoadShardTargets(t *testing.T) {
	ts1, ts2, ts3 := startServer(t), startServer(t), startServer(t)
	router := startRouter(t, ts1.URL, ts2.URL, ts3.URL)
	rep := runLoad(t, router.URL, "-graphs", "3", "-mode", "batch", "-batch", "4")
	if rep.Errors != 0 {
		t.Fatalf("report has %d errors", rep.Errors)
	}
	if rep.Graphs != 3 {
		t.Errorf("report graphs=%d, want 3", rep.Graphs)
	}
}

// TestLoadFailover: one of two shards is dead from the start; the router
// must fail requests over to the surviving shard.
func TestLoadFailover(t *testing.T) {
	live := startServer(t)
	dead := startServer(t)
	deadURL := dead.URL
	dead.Close() // connection refused for every request routed here first
	router := startRouter(t, live.URL, deadURL)
	rep := runLoad(t, router.URL, "-graphs", "2")
	if rep.Errors != 0 {
		t.Fatalf("failover load reported %d errors", rep.Errors)
	}
}

func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-mode", "bogus"}, &out); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run(context.Background(), []string{"-requests", "0"}, &out); err == nil {
		t.Error("zero requests accepted")
	}
	if err := run(context.Background(), []string{"-tasks", "1"}, &out); err == nil {
		t.Error("degenerate task count accepted")
	}
}
