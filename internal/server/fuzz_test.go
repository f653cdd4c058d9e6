package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/shard"
	"github.com/mia-rt/mia/internal/wire"
)

// fuzzTier is the two front doors a request body reaches a shard through:
// the shard's own handler, and a one-shard router speaking real HTTP to it.
type fuzzTier struct {
	srv    *Server
	router *shard.Router
	hash   string // Figure 2, analyzed on the shard
}

func newFuzzTier(f *testing.F) *fuzzTier {
	shards, urls := newFleet(f, 1, Config{Workers: 1})
	ft := &fuzzTier{srv: shards[0].srv, router: newFleetRouter(f, urls, shard.Config{})}
	ft.hash = responseHash(f, analyzeGraph(f, ft.srv, graphJSON(f, gen.Figure2())))
	return ft
}

// check posts body to path both ways, declared as JSON or as the wire
// format, and fails on any answer of 500 or above: every external input
// must get a 4xx verdict or be served. Jobs a body started are cancelled,
// so fuzzing does not pile up searches.
func (ft *fuzzTier) check(t *testing.T, path string, body []byte, asWire bool) {
	contentType := "application/json"
	if asWire {
		contentType = wire.ContentType
	}
	for _, via := range []struct {
		name string
		h    http.Handler
	}{{"shard", ft.srv.Handler()}, {"router", ft.router.Handler()}} {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rr := httptest.NewRecorder()
		via.h.ServeHTTP(rr, req)
		if rr.Code >= 500 {
			t.Fatalf("%s answered %d to POST %s (%s) %q: %s", via.name, rr.Code, path, contentType, body, rr.Body.String())
		}
	}
	ft.srv.jobs.cancelAll("cancelled")
}

// FuzzBatchBody feeds arbitrary /v1/batch bodies to a shard and through a
// router. Seeds: the rejections of TestBatchBadInputs and TestBadInputs,
// plus valid JSON and wire batches.
func FuzzBatchBody(f *testing.F) {
	ft := newFuzzTier(f)
	blob := string(wire.EncodeGraph(gen.Figure2()))
	for _, seed := range []struct {
		body   string
		asWire bool
	}{
		{fmt.Sprintf(`{"hash":%q,"items":[]}`, ft.hash), false},
		{`{"items":[{"swaps":[]}]}`, false},
		{`{"hash":"deadbeef","items":[{"swaps":[]}]}`, false},
		{fmt.Sprintf(`{"hash":%q,"graph":{},"items":[{"swaps":[]}]}`, ft.hash), false},
		{fmt.Sprintf(`{"hash":%q,"items":[{"swaps":[]}],"bogus":1}`, ft.hash), false},
		{"{", false},
		{`{"graph":` + hugeCoresGraph + `,"items":[{"swaps":[]}]}`, false},
		{fmt.Sprintf(`{"hash":%q,"items":[{"swaps":[]},{"swaps":[{"core":2,"pos":0}]},{"swaps":[{"core":9,"pos":0}]}]}`, ft.hash), false},
		{"not a wire blob", true},
		{blob + `{"bogus":[]}`, true},
		{blob, true},
		{blob + `{"items":[{"swaps":[{"core":2,"pos":0}]}]}`, true},
	} {
		f.Add([]byte(seed.body), seed.asWire)
	}
	f.Fuzz(func(t *testing.T, body []byte, asWire bool) {
		ft.check(t, "/v1/batch", body, asWire)
	})
}

// FuzzJobBody feeds arbitrary /v1/jobs bodies to a shard and through a
// router. Seeds: the rejections of TestJobValidation and TestBadInputs,
// plus a small valid search.
func FuzzJobBody(f *testing.F) {
	ft := newFuzzTier(f)
	graph := string(smokeGraphJSON(f))
	for _, body := range []string{
		`{}`,
		`{"hash":"deadbeef","graph":` + graph + `}`,
		`{"hash":"deadbeef"}`,
		`{"graph":` + graph + `,"objectives":["nope"]}`,
		`{"graph":` + graph + `,"bogus":1}`,
		`{"graph":` + graph + `,"pop_size":4398046511104,"generations":1}`,
		`{"graph":` + graph + `,"pop_size":8,"generations":4398046511104}`,
		`{"graph":` + hugeBanksGraph + `}`,
		fmt.Sprintf(`{"hash":%q,"pop_size":4,"generations":1,"seed":3}`, ft.hash),
	} {
		f.Add([]byte(body), false)
	}
	f.Fuzz(func(t *testing.T, body []byte, asWire bool) {
		ft.check(t, "/v1/jobs", body, asWire)
	})
}
