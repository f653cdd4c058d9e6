//go:build servesmoke

package main

// The shard smoke test (make serve-shard-smoke) stands up the full sharded
// serving tier as real processes over loopback TCP: three miaserve shards
// with a deliberately tiny admission queue, one miarouter fronting them,
// and miaload driving through the router. It checks the tier's three
// operating regimes end to end, and the replication path:
//
//   - steady state: batch traffic through the router completes with zero
//     errors (routing and replication are invisible to the client);
//   - saturation: overload sheds with 429 and every shed response carries a
//     bounded Retry-After in [1, 30] s (validated by miaload -saturate);
//   - replication: every analyze the router replicated reached a shard
//     as a register-only request (shard requests.register summed equals
//     the router's replications, and both are above 0);
//   - drain: SIGINT stops router and shards cleanly, exit code 0.
//
// Same build tag as serve-smoke so `go test ./...` stays exec-free; CI runs
// this with -race so the in-process client doubles as a race probe.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestServeShardSmoke(t *testing.T) {
	dir := t.TempDir()
	serveBin := filepath.Join(dir, "miaserve")
	routerBin := filepath.Join(dir, "miarouter")
	// -race on the fleet binaries too: the shards and router double as race
	// probes, and a race-slowed client cannot overload full-speed shards —
	// the saturation phase needs comparable speeds on both sides.
	for bin, pkg := range map[string]string{
		serveBin:  "github.com/mia-rt/mia/cmd/miaserve",
		routerBin: "github.com/mia-rt/mia/cmd/miarouter",
	} {
		if out, err := exec.Command("go", "build", "-race", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	// Three shards with one worker and a single queue slot each (the
	// smallest honored depth), so overload sheds almost immediately.
	type proc struct {
		cmd *exec.Cmd
		out *syncOutput
	}
	start := func(name string, args ...string) (*proc, string) {
		t.Helper()
		p := &proc{cmd: exec.Command(name, args...), out: &syncOutput{}}
		p.cmd.Stdout = p.out
		p.cmd.Stderr = p.out
		if err := p.cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		t.Cleanup(func() { p.cmd.Process.Kill() }) // no-op after a clean exit
		return p, waitListening(t, p.out)
	}

	shards := make([]*proc, 3)
	urls := make([]string, 3)
	for i := range shards {
		shards[i], urls[i] = start(serveBin, "-addr", "127.0.0.1:0", "-workers", "1", "-queue", "1")
	}
	router, routerURL := start(routerBin,
		"-addr", "127.0.0.1:0", "-targets", strings.Join(urls, ","), "-health", "250ms")

	runReport := func(args ...string) report {
		t.Helper()
		args = append([]string{"-addr", routerURL, "-json"}, args...)
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

	// Steady state: sequential batch traffic through the router must be
	// error-free even on a single-slot queue (one request in flight keeps
	// the worker ready).
	steady := runReport("-tasks", "128", "-mode", "batch", "-batch", "8", "-requests", "8", "-concurrency", "1", "-graphs", "3")
	if steady.Errors != 0 || steady.Shed != 0 {
		t.Fatalf("steady state: %d errors, %d shed, want 0 and 0", steady.Errors, steady.Shed)
	}

	// Saturation: sixteen concurrent clients against single-worker shards,
	// with graphs big enough (512 tasks) that cold batches pin a worker for
	// a long window — concurrent arrivals then find the single queue slot
	// taken and shed. -saturate turns 429s into measured outcomes, while
	// still treating a missing or out-of-range Retry-After as a protocol
	// error.
	sat := runReport("-tasks", "256", "-mode", "batch", "-batch", "16", "-requests", "32", "-concurrency", "16", "-graphs", "4", "-saturate")
	if sat.Errors != 0 {
		t.Fatalf("saturation run: %d errors (shed accounting should absorb overload)", sat.Errors)
	}
	if sat.Shed == 0 {
		t.Fatalf("saturation run shed nothing: report %+v (queue 1, 16 clients — overload never reached the shards?)", sat)
	}
	if sat.RetryAfterMinS < 1 || sat.RetryAfterMaxS > 30 {
		t.Fatalf("Retry-After range [%d, %d] s outside [1, 30]", sat.RetryAfterMinS, sat.RetryAfterMaxS)
	}

	// Replication: the priming analyzes were replicated, and each
	// replication the router counted reached a shard as a register-only
	// request (the router replicates synchronously, so by now every one
	// has been answered).
	metrics := func(base string, v any) {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("GET %s/metrics: %v", base, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s/metrics: %v", base, err)
		}
	}
	var rm struct {
		Replications int64 `json:"replications"`
	}
	metrics(routerURL, &rm)
	var registered int64
	for _, u := range urls {
		var sm struct {
			Requests struct {
				Register int64 `json:"register"`
			} `json:"requests"`
		}
		metrics(u, &sm)
		registered += sm.Requests.Register
	}
	if rm.Replications == 0 || registered != rm.Replications {
		t.Fatalf("router replications %d, shard register requests %d: want equal and above 0", rm.Replications, registered)
	}

	// Drain: router first, then the shards; each must exit 0.
	stop := func(p *proc, name string) {
		t.Helper()
		if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatalf("SIGINT %s: %v", name, err)
		}
		done := make(chan error, 1)
		go func() { done <- p.cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s exited with %v, want code 0; output: %s", name, err, p.out.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not exit after SIGINT; output: %s", name, p.out.String())
		}
	}
	stop(router, "miarouter")
	for i, sh := range shards {
		stop(sh, "shard "+urls[i])
	}
}
