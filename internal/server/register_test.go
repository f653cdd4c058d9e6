package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/shard"
	"github.com/mia-rt/mia/internal/wire"
)

func post(h http.Handler, target, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// TestRegisterOnly: POST /v1/analyze?register=1 compiles and registers the
// graph, answers the hash a full analyze reports, and runs no analysis —
// yet a later by-hash reschedule is byte-identical to a direct cold
// analyze of the edited graph.
func TestRegisterOnly(t *testing.T) {
	g := roundTrip(t, gen.Figure2()) // no edges, so order swaps stay schedulable
	edited := g.Clone()
	edited.SwapOrder(2, 0)
	edited.SwapOrder(3, 1)
	ref := newTestServer(t, Config{Workers: 1})
	hash := responseHash(t, analyzeGraph(t, ref, graphJSON(t, g)))
	wantEdited := analyzeGraph(t, ref, graphJSON(t, edited)).Body.Bytes()

	for _, tc := range []struct {
		name, contentType string
		body              []byte
	}{
		{"json", "application/json", graphJSON(t, g)},
		{"wire", wire.ContentType, wire.EncodeGraph(g)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{Workers: 1})
			rr := post(s.Handler(), "/v1/analyze?register=1", tc.contentType, tc.body)
			if want := fmt.Sprintf(`{"hash":%q}`, hash); rr.Code != http.StatusOK || rr.Body.String() != want {
				t.Fatalf("register: %d %s, want 200 %s", rr.Code, rr.Body.String(), want)
			}
			if ct, cache := rr.Header().Get("Content-Type"), rr.Header().Get("X-Mia-Cache"); ct != "application/json" || cache != "" {
				t.Errorf("register headers Content-Type %q X-Mia-Cache %q, want application/json and none", ct, cache)
			}
			if hits, misses, done := s.met.cacheHits.Value(), s.met.cacheMisses.Value(), s.runner.Completed(); hits+misses+done != 0 {
				t.Errorf("register ran an analysis: cache hits %d misses %d, queue completed %d; want all 0", hits, misses, done)
			}
			if a, r, n := s.met.analyze.Value(), s.met.register.Value(), s.images.len(); a != 0 || r != 1 || n != 1 {
				t.Errorf("requests.analyze %d, requests.register %d, registered graphs %d; want 0, 1, 1", a, r, n)
			}

			rs := post(s.Handler(), "/v1/reschedule", "",
				[]byte(fmt.Sprintf(`{"hash":%q,"swaps":[{"core":2,"pos":0},{"core":3,"pos":1}]}`, hash)))
			if rs.Code != http.StatusOK || !bytes.Equal(rs.Body.Bytes(), wantEdited) {
				t.Errorf("reschedule after register: %d\n got: %s\nwant: %s", rs.Code, rs.Body.Bytes(), wantEdited)
			}
			if got := rs.Header().Get("X-Mia-Cache"); got != "miss" {
				t.Errorf("first reschedule after register X-Mia-Cache = %q, want \"miss\"", got)
			}
		})
	}
}

// TestRegisterRejectsLikeAnalyze: a body analyze rejects gets the same 400
// bytes in the register form, and a register value other than "1" is a
// 400 of its own.
func TestRegisterRejectsLikeAnalyze(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name, contentType, body string
	}{
		{"malformed", "", "{"},
		{"invalid graph", "", `{"cores":0,"banks":1}`},
		{"huge cores", "", hugeCoresGraph},
		{"trailing data", "", `{"cores":1,"banks":1,"tasks":[],"edges":[]} trailing-garbage`},
		{"wire junk", wire.ContentType, "not a wire blob"},
	} {
		plain := post(s.Handler(), "/v1/analyze", tc.contentType, []byte(tc.body))
		reg := post(s.Handler(), "/v1/analyze?register=1", tc.contentType, []byte(tc.body))
		if plain.Code != http.StatusBadRequest || reg.Code != plain.Code || reg.Body.String() != plain.Body.String() {
			t.Errorf("%s: analyze %d %s, register %d %s; want the same 400", tc.name,
				plain.Code, plain.Body.String(), reg.Code, reg.Body.String())
		}
	}
	body := graphJSON(t, gen.Figure1())
	for _, q := range []string{"register=0", "register=true", "register=", "register=2"} {
		rr := post(s.Handler(), "/v1/analyze?"+q, "", body)
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "register") {
			t.Errorf("?%s: %d %s, want 400 naming register", q, rr.Code, rr.Body.String())
		}
	}
	if n := s.images.len(); n != 0 {
		t.Errorf("%d graphs registered by rejected requests, want 0", n)
	}
}

// TestBodyOverLimit: a body past MaxRequestBytes answers 400 with the
// net/http error text, at the shard and through the router, whether its
// length is declared or not.
func TestBodyOverLimit(t *testing.T) {
	const limit = 4096
	g := gen.MustLayered(gen.NewParams(8, 8))
	jsonBody, wireBody := graphJSON(t, g), wire.EncodeGraph(g)
	if len(jsonBody) <= limit || len(wireBody) <= limit {
		t.Fatalf("test graph too small: %d JSON and %d wire bytes against a %d-byte limit", len(jsonBody), len(wireBody), limit)
	}
	jsonBatch := []byte(`{"graph":` + string(jsonBody) + `,"items":[{"swaps":[]}]}`)
	wireBatch := append(append([]byte(nil), wireBody...), `{"items":[{"swaps":[]}]}`...)
	const want = `{"error":"http: request body too large"}`

	direct := newTestServer(t, Config{Workers: 1, MaxRequestBytes: limit})
	_, urls := newFleet(t, 1, Config{Workers: 1})
	router := newFleetRouter(t, urls, shard.Config{MaxRequestBytes: limit})
	for _, node := range []struct {
		name string
		h    http.Handler
	}{{"shard", direct.Handler()}, {"router", router.Handler()}} {
		for _, tc := range []struct {
			name, target, contentType string
			body                      []byte
		}{
			{"json analyze", "/v1/analyze", "application/json", jsonBody},
			{"json register", "/v1/analyze?register=1", "application/json", jsonBody},
			{"wire analyze", "/v1/analyze", wire.ContentType, wireBody},
			{"json batch", "/v1/batch", "application/json", jsonBatch},
			{"wire batch", "/v1/batch", wire.ContentType, wireBatch},
		} {
			for _, declared := range []bool{true, false} {
				req := httptest.NewRequest(http.MethodPost, tc.target, bytes.NewReader(tc.body))
				if !declared {
					req.ContentLength = -1
				}
				req.Header.Set("Content-Type", tc.contentType)
				rr := httptest.NewRecorder()
				node.h.ServeHTTP(rr, req)
				if rr.Code != http.StatusBadRequest || rr.Body.String() != want {
					t.Errorf("%s %s (length declared %v): %d %s, want 400 %s",
						node.name, tc.name, declared, rr.Code, rr.Body.String(), want)
				}
			}
		}
	}
}
