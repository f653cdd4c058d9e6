// Command miaserve runs the memory-interference analysis as a long-running
// HTTP service with warm-scheduler pooling: repeat analyses and
// order-edit reschedules of a known graph are served from checkpointed
// incremental schedulers instead of re-analyzing from t=0. Graphs arrive
// as JSON or as the flat binary wire format (Content-Type
// wire.ContentType, see internal/wire), which compiles without an
// intermediate graph build.
//
//	POST /v1/analyze     graph (JSON or wire) → schedule (release dates, response times)
//	POST /v1/reschedule  {"hash": ..., "swaps": [{"core":k,"pos":p}, ...]}
//	POST /v1/batch       one graph + many swap scenarios → streamed NDJSON
//	                     results with a truncation-aware trailer line
//	GET  /healthz        liveness (503 while draining)
//	GET  /metrics        counters, cache hits/misses, batch/ingest/streaming
//	                     counters, p50/p99 latency
//	GET  /debug/pprof/*  profiling — only with -pprof, loopback clients only
//
// Admission is load-shedding: a full queue answers 429 with Retry-After.
// SIGINT/SIGTERM drains gracefully — in-flight requests finish (bounded by
// -drain), new ones get 503, and the process exits 0 on a clean drain.
//
// Usage:
//
//	miaserve -addr :8080
//	miaserve -addr 127.0.0.1:0 -workers 8 -queue 128 -timeout 10s
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "miaserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("miaserve", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers = fs.Int("workers", 0, "warm evaluator workers (0 = one per CPU)")
		queue   = fs.Int("queue", 64, "admission queue depth (full queue sheds with 429)")
		cache   = fs.Int("cache", 8, "warm schedulers kept per worker (LRU)")
		graphs  = fs.Int("graphs", 128, "compiled graph images kept for reschedule-by-hash (LRU)")
		timeout = fs.Duration("timeout", 30*time.Second, "default per-request deadline (override per request with ?timeout_ms=)")
		drain   = fs.Duration("drain", 15*time.Second, "graceful shutdown budget after SIGINT/SIGTERM")
		arbName = fs.String("arbiter", "rr", "bus policy: "+strings.Join(arbiter.Known(), ", "))
		latency = fs.Int64("latency", 1, "bank word latency in cycles")
		pprofOn = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (loopback clients only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	arb, err := arbiter.New(arbiter.Spec{Policy: *arbName, WordLatency: *latency, GroupSize: 2, Slots: 16, SlotLength: 1})
	if err != nil {
		return err
	}

	srv := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		WarmCacheSize:  *cache,
		GraphCacheSize: *graphs,
		DefaultTimeout: *timeout,
		Sched:          sched.Options{Arbiter: arb, Deadline: model.Cycles(0)},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: assembleHandler(srv.Handler(), *pprofOn)}
	fmt.Fprintf(stdout, "miaserve: listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "miaserve: signal received, draining")
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(shutdownCtx)
	srv.Close() // runs every admitted job to completion, stops the workers
	if shutdownErr != nil {
		return fmt.Errorf("drain incomplete after %v: %w", *drain, shutdownErr)
	}
	fmt.Fprintln(stdout, "miaserve: clean shutdown")
	return nil
}

// assembleHandler layers the optional profiling endpoints over the analysis
// API. With pprofOn false the API handler is served unchanged — no /debug
// routes exist at all. With it true, /debug/pprof/ is mounted for loopback
// clients only: profiles expose memory contents and timing side channels,
// so a service reachable from the network must not leak them to remote
// callers merely because an operator wanted local profiling.
func assembleHandler(api http.Handler, pprofOn bool) http.Handler {
	if !pprofOn {
		return api
	}
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.Handle("/debug/pprof/", loopbackOnly(http.HandlerFunc(pprof.Index)))
	mux.Handle("/debug/pprof/cmdline", loopbackOnly(http.HandlerFunc(pprof.Cmdline)))
	mux.Handle("/debug/pprof/profile", loopbackOnly(http.HandlerFunc(pprof.Profile)))
	mux.Handle("/debug/pprof/symbol", loopbackOnly(http.HandlerFunc(pprof.Symbol)))
	mux.Handle("/debug/pprof/trace", loopbackOnly(http.HandlerFunc(pprof.Trace)))
	return mux
}

// loopbackOnly admits only requests whose peer address is a loopback IP.
// The check uses the transport-level RemoteAddr, never forwarded-for
// headers, which any client could spoof.
func loopbackOnly(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			host = r.RemoteAddr
		}
		ip := net.ParseIP(host)
		if ip == nil || !ip.IsLoopback() {
			http.Error(w, "pprof is restricted to loopback clients", http.StatusForbidden)
			return
		}
		next.ServeHTTP(w, r)
	})
}
