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

func newFuzzTier(t testing.TB) *fuzzTier {
	shards, urls := newFleet(t, 1, Config{Workers: 1})
	ft := &fuzzTier{srv: shards[0].srv, router: newFleetRouter(t, urls, shard.Config{})}
	ft.hash = responseHash(t, analyzeGraph(t, ft.srv, graphJSON(t, gen.Figure2())))
	return ft
}

// check posts body to path both ways, declared as JSON or as the wire
// format, and returns the shard's status. It fails on any answer of 500 or
// above: every external input must get a 4xx verdict or be served. A batch
// or a reschedule must also get the same status and body bytes both ways (a
// job's answer names a fresh job id each time). Jobs a body started are
// cancelled, so fuzzing does not pile up searches.
func (ft *fuzzTier) check(t *testing.T, path string, body []byte, asWire bool) int {
	contentType := "application/json"
	if asWire {
		contentType = wire.ContentType
	}
	var answers []*httptest.ResponseRecorder
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
		answers = append(answers, rr)
	}
	ft.srv.jobs.cancelAll("cancelled")
	direct, routed := answers[0], answers[1]
	if path != "/v1/jobs" && (direct.Code != routed.Code || !bytes.Equal(direct.Body.Bytes(), routed.Body.Bytes())) {
		t.Fatalf("POST %s (%s) %q: shard answered %d %s, router %d %s",
			path, contentType, body, direct.Code, direct.Body.String(), routed.Code, routed.Body.String())
	}
	return direct.Code
}

// TestBatchBodyParity: a shard and a router in front of it give each batch
// body the same status and body bytes. The first six bodies are ones the
// router once answered otherwise: it dropped an unknown key, and a graph
// beside a hash, when it re-serialized the batch, and it refused data
// after the object, which the shard's stream decoder ignored.
func TestBatchBodyParity(t *testing.T) {
	ft := newFuzzTier(t)
	blob := string(wire.EncodeGraph(gen.Figure2()))
	items := `"items":[{"swaps":[]},{"swaps":[{"core":2,"pos":0}]}]`
	hash := fmt.Sprintf(`"hash":%q,`, ft.hash)
	for _, tc := range []struct {
		name   string
		body   string
		asWire bool
		want   int
	}{
		{"unknown key", `{` + hash + items + `,"bogus":1}`, false, http.StatusBadRequest},
		{"wire unknown key", blob + `{` + items + `,"bogus":1}`, true, http.StatusBadRequest},
		{"hash and graph", `{` + hash + `"graph":{},` + items + `}`, false, http.StatusBadRequest},
		{"hash and null graph", `{` + hash + `"graph":null,` + items + `}`, false, http.StatusBadRequest},
		{"trailing data", `{` + hash + items + `}x`, false, http.StatusBadRequest},
		{"wire trailing data", blob + `{` + items + `}x`, true, http.StatusBadRequest},
		{"valid", `{` + hash + items + `}`, false, http.StatusOK},
		{"valid, trailing whitespace", `{` + hash + items + "}\n ", false, http.StatusOK},
		{"valid wire", blob + `{` + items + `}`, true, http.StatusOK},
		{"bad item", `{` + hash + `"items":[{"swaps":[]},{"swaps":[],"bogus":1}]}`, false, http.StatusBadRequest},
		{"item out of range", `{` + hash + `"items":[{"swaps":[]},{"swaps":[{"core":9,"pos":0}]}]}`, false, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := ft.check(t, "/v1/batch", []byte(tc.body), tc.asWire); got != tc.want {
				t.Errorf("got %d, want %d", got, tc.want)
			}
		})
	}
}

// FuzzBatchBody feeds arbitrary /v1/batch bodies to a shard and through a
// router, which must answer alike. Seeds: the rejections of
// TestBatchBadInputs and TestBadInputs, data after the object, a wire blob
// followed by an unknown key, plus valid JSON and wire batches.
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
		{fmt.Sprintf(`{"hash":%q,"items":[{"swaps":[]}]}x`, ft.hash), false},
		{"not a wire blob", true},
		{blob + `{"bogus":[]}`, true},
		{blob + `{"items":[{"swaps":[]}],"bogus":1}`, true},
		{blob + `{"items":[{"swaps":[]}]} {}`, true},
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

// FuzzRescheduleBody feeds arbitrary /v1/reschedule bodies to a shard and
// through a router, which must answer alike. Seeds: the reschedule rows of
// TestBadInputs, data after the object, an out-of-range swap, and a valid
// body. One shard cannot show placement;
// TestRouterTrailingDataAnswersLikeHolder covers that on a fleet.
func FuzzRescheduleBody(f *testing.F) {
	ft := newFuzzTier(f)
	for _, body := range []string{
		"{",
		`{"hash":"x","moves":[]}`,
		`{"swaps":[]}`,
		`{"hash":"deadbeef","swaps":[]}`,
		fmt.Sprintf(`{"hash":%q,"swaps":[{"core":99,"pos":0}]}`, ft.hash),
		fmt.Sprintf(`{"hash":%q,"swaps":[{"core":2,"pos":7}]}`, ft.hash),
		fmt.Sprintf(`{"hash":%q,"swaps":[]}x`, ft.hash),
		fmt.Sprintf(`{"hash":%q,"swaps":[{"core":2,"pos":0}]}`, ft.hash),
	} {
		f.Add([]byte(body), false)
	}
	f.Fuzz(func(t *testing.T, body []byte, asWire bool) {
		ft.check(t, "/v1/reschedule", body, asWire)
	})
}
