package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/mia-rt/mia/internal/server"
)

func apiStub() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
}

// With -pprof off, no /debug route exists: the API handler sees every path.
func TestPprofDisabledByDefault(t *testing.T) {
	h := assembleHandler(apiStub(), false)
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusTeapot {
		t.Fatalf("disabled pprof: /debug/pprof/ reached something other than the API (status %d)", rr.Code)
	}
}

func TestPprofLoopbackOnly(t *testing.T) {
	h := assembleHandler(apiStub(), true)
	cases := []struct {
		name       string
		remoteAddr string
		want       int
	}{
		{"ipv4 loopback", "127.0.0.1:54321", http.StatusOK},
		{"ipv6 loopback", "[::1]:54321", http.StatusOK},
		{"remote client", "192.0.2.10:54321", http.StatusForbidden},
		{"unparseable peer", "not-an-address", http.StatusForbidden},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
			req.RemoteAddr = tc.remoteAddr
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			if rr.Code != tc.want {
				t.Fatalf("peer %s: status %d, want %d", tc.remoteAddr, rr.Code, tc.want)
			}
		})
	}
}

// The API keeps working unchanged when pprof is mounted.
func TestPprofMountLeavesAPIRoutes(t *testing.T) {
	h := assembleHandler(apiStub(), true)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.RemoteAddr = "192.0.2.10:54321" // remote clients still reach the API
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusTeapot {
		t.Fatalf("API route behind pprof mux: status %d", rr.Code)
	}
}

// The server keeps its counters in a private expvar tree and serves them on
// /metrics only. Importing expvar registers /debug/vars on
// http.DefaultServeMux, which miaserve never serves, with or without pprof.
func TestNoDebugVars(t *testing.T) {
	srv := server.New(server.Config{Workers: 1})
	defer srv.Close()
	for _, pprofOn := range []bool{false, true} {
		h := assembleHandler(srv.Handler(), pprofOn)
		req := httptest.NewRequest(http.MethodGet, "/debug/vars", nil)
		req.RemoteAddr = "127.0.0.1:54321"
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusNotFound {
			t.Errorf("pprof %v: GET /debug/vars: %d, want 404", pprofOn, rr.Code)
		}
	}
}
