package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// scheduleResponse is the body of successful analyze and reschedule
// responses. The two endpoints share it on purpose: a reschedule served from
// a warm checkpoint is byte-identical to a cold analyze of the edited graph
// (the differential tests pin this), so warm reuse is unobservable in the
// payload.
type scheduleResponse struct {
	Hash              string         `json:"hash"`
	Algorithm         string         `json:"algorithm"`
	Tasks             int            `json:"tasks"`
	Makespan          model.Cycles   `json:"makespan"`
	TotalInterference model.Cycles   `json:"totalInterference"`
	Iterations        int            `json:"iterations"`
	Release           []model.Cycles `json:"release"`
	Response          []model.Cycles `json:"response"`
	Interference      []model.Cycles `json:"interference"`
}

// marshalSchedule serializes a result while the worker still owns it (the
// warm analyzer overwrites its Result on the next run).
func marshalSchedule(hash string, tasks int, res *sched.Result) ([]byte, error) {
	return json.Marshal(&scheduleResponse{
		Hash:              hash,
		Algorithm:         res.Algorithm,
		Tasks:             tasks,
		Makespan:          res.Makespan,
		TotalInterference: res.TotalInterference(),
		Iterations:        res.Iterations,
		Release:           res.Release,
		Response:          res.Response,
		Interference:      res.Interference,
	})
}

// schedReply maps an analysis outcome to a reply: 200 with the schedule,
// 422 for unschedulable inputs (a verdict, not a server failure), 504 for a
// deadline that expired mid-analysis.
func schedReply(ctx context.Context, hash string, tasks int, res *sched.Result, err error, cacheNote string) reply {
	switch {
	case errors.Is(err, sched.ErrCanceled):
		return timeoutReply(ctx)
	case err != nil:
		return reply{status: http.StatusUnprocessableEntity, cacheNote: cacheNote, body: errBody(err.Error())}
	}
	body, merr := marshalSchedule(hash, tasks, res)
	if merr != nil {
		return reply{status: http.StatusInternalServerError, body: errBody(merr.Error())}
	}
	return reply{status: http.StatusOK, cacheNote: cacheNote, body: body}
}

// handleAnalyze serves POST /v1/analyze: graph JSON in, schedule out. The
// graph is compiled once into an immutable engine image and registered in
// the shared fingerprint registry, so later requests for the same
// fingerprint — on any worker — analyze the same compiled image instead of
// re-deriving it from graph bytes. The analysis itself is the zero-swap
// scenario of whatIf.
//
// With ?register=1 the graph is compiled and registered the same way, and
// the reply is only {"hash":...}: the request never enters the admission
// queue and runs no analysis. The router replicates analyzes this way, so
// a replica holds the image without paying for a schedule nobody reads.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	v, register := r.URL.Query()["register"]
	if register {
		s.met.register.Add(1)
		if len(v) != 1 || v[0] != "1" {
			s.writeReply(w, reply{status: http.StatusBadRequest, body: errBody(`register must be "1"`)})
			return
		}
	} else {
		s.met.analyze.Add(1)
	}
	img, err := s.compileBody(r)
	if err != nil {
		s.writeReply(w, reply{status: http.StatusBadRequest, body: errBody(err.Error())})
		return
	}
	hash := img.Fingerprint()
	img = s.images.put(hash, img)
	if register {
		if s.draining() {
			s.writeReply(w, reply{status: http.StatusServiceUnavailable, body: errBody("draining")})
			return
		}
		body, _ := json.Marshal(struct {
			Hash string `json:"hash"`
		}{hash})
		s.writeReply(w, reply{status: http.StatusOK, body: body})
		return
	}
	s.dispatch(w, r, func(ctx context.Context, wk *worker) reply {
		return wk.whatIf(ctx, s, img, hash, nil, nil)
	})
}

// rescheduleRequest is the body of POST /v1/reschedule: the fingerprint of a
// previously analyzed graph plus an ordered list of adjacent order swaps to
// apply to its per-core execution orders before re-analyzing.
type rescheduleRequest struct {
	Hash string `json:"hash"`
	// Swaps are applied in sequence: each exchanges positions pos and pos+1
	// of core's execution order (the explorer's move primitive).
	Swaps []swapEdit `json:"swaps"`
}

type swapEdit struct {
	Core int `json:"core"`
	Pos  int `json:"pos"`
}

// handleReschedule serves POST /v1/reschedule. The response is
// byte-identical to a cold POST /v1/analyze of the edited graph.
func (s *Server) handleReschedule(w http.ResponseWriter, r *http.Request) {
	s.met.reschedule.Add(1)
	var req rescheduleRequest
	if err := s.decodeBody(r, &req); err != nil {
		s.writeReply(w, reply{status: http.StatusBadRequest, body: errBody("parsing reschedule request: " + err.Error())})
		return
	}
	if req.Hash == "" {
		s.writeReply(w, reply{status: http.StatusBadRequest, body: errBody("missing graph hash")})
		return
	}
	s.dispatch(w, r, func(ctx context.Context, wk *worker) reply {
		return wk.whatIf(ctx, s, nil, req.Hash, req.Swaps, nil)
	})
}

// whatIf runs on a worker goroutine and evaluates one edit scenario of a
// graph: it is the one scenario path, serving analyze (no swaps), the unary
// reschedule endpoint and every batch item, so those cannot drift apart.
// img is the image the handler already resolved, or nil for a reschedule by
// hash, which reads the registry only when the worker has no warm entry for
// the fingerprint (404 if the registry has dropped it). The worker's warm
// entry provides the checkpoint baseline; the requested swaps are applied to
// the analyzer's order overlay, the suffix behind the earliest divergence
// is replayed, and the swaps are undone so the baseline stays valid for the
// next request (the explorer's apply-evaluate-undo pattern, stretched
// across requests). A cold entry first commits its baseline with one full
// analysis, which is also the answer to a zero-swap scenario.
//
// memo, when non-nil, memoizes successful replies by the fingerprint of
// the evaluated configuration. Equal fingerprints mean identical analysis
// inputs mean an identical Result (the repository's core bit-identity
// invariant), so a scenario whose applied orders match an earlier one —
// different swap sequences can reach the same configuration — is answered
// with the earlier reply's bytes without replaying. The batch path passes
// a per-batch map; the map is worker-confined, so no locking. Unary
// requests pass nil: cross-request result reuse would need an invalidation
// story, while a batch scopes the memo to one stream naturally.
func (wk *worker) whatIf(ctx context.Context, s *Server, img *engine.Image, hash string, swaps []swapEdit, memo map[string]reply) reply {
	if err := ctx.Err(); err != nil {
		return timeoutReply(ctx)
	}
	e, ok := wk.cache.get(hash)
	if !ok {
		if img == nil {
			if img, ok = s.images.get(hash); !ok {
				return reply{status: http.StatusNotFound, body: errBody(errUnknownHash)}
			}
		}
		e = wk.cache.add(hash, &warmEntry{img: img, w: eng.NewWarm(img)})
	}
	warm := e.w.Warm()
	cacheNote := "miss"
	if warm {
		cacheNote = "hit"
		s.met.cacheHits.Add(1)
	} else {
		s.met.cacheMisses.Add(1)
	}

	// The checkpoint baseline must describe the *unedited* orders before any
	// swap is applied: Reschedule without a baseline would commit the edited
	// orders as the new baseline, which the undo below would then invalidate.
	if !warm {
		res, err := e.w.Analyze(ctx)
		if err != nil || len(swaps) == 0 {
			return schedReply(ctx, hash, e.img.NumTasks, res, err, cacheNote)
		}
	}

	// Validate and apply the swaps to the order overlay, tracking the
	// earliest divergence position per core for the replay.
	ord := e.w.Orders()
	firstEdit := make(map[model.CoreID]int, len(swaps))
	applied := 0
	undo := func() {
		for i := applied - 1; i >= 0; i-- {
			ord.Swap(model.CoreID(swaps[i].Core), swaps[i].Pos)
		}
	}
	for _, sw := range swaps {
		if sw.Core < 0 || sw.Core >= e.img.Cores {
			undo()
			return reply{status: http.StatusBadRequest, cacheNote: cacheNote,
				body: errBody(fmt.Sprintf("swap core %d out of range (platform has %d cores)", sw.Core, e.img.Cores))}
		}
		order := ord.Order(model.CoreID(sw.Core))
		if sw.Pos < 0 || sw.Pos+1 >= len(order) {
			undo()
			return reply{status: http.StatusBadRequest, cacheNote: cacheNote,
				body: errBody(fmt.Sprintf("swap position %d out of range (core %d orders %d tasks)", sw.Pos, sw.Core, len(order)))}
		}
		ord.Swap(model.CoreID(sw.Core), sw.Pos)
		applied++
		if cur, ok := firstEdit[model.CoreID(sw.Core)]; !ok || sw.Pos < cur {
			firstEdit[model.CoreID(sw.Core)] = sw.Pos
		}
	}
	defer undo()

	edits := make([]engine.Edit, 0, len(firstEdit))
	for k := 0; k < e.img.Cores; k++ {
		if pos, ok := firstEdit[model.CoreID(k)]; ok {
			edits = append(edits, engine.Edit{Core: model.CoreID(k), From: pos})
		}
	}
	// The response carries the fingerprint of the *edited* graph — exactly
	// what a cold analyze of that graph would return — computed while the
	// swaps are applied. It is also the memo key: with the image's frozen
	// midstate hasher this costs O(tasks), far below a replay.
	fp := e.img.FingerprintOrders(ord)
	if memo != nil {
		if rep, ok := memo[fp]; ok {
			return rep
		}
	}
	res, err := e.w.Reschedule(ctx, edits...)
	rep := schedReply(ctx, fp, e.img.NumTasks, res, err, cacheNote)
	if memo != nil && rep.status == http.StatusOK {
		memo[fp] = rep
	}
	return rep
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.met.healthz.Add(1)
	if s.draining() {
		s.writeReply(w, reply{status: http.StatusServiceUnavailable, body: []byte(`{"status":"draining"}`)})
		return
	}
	s.writeReply(w, reply{status: http.StatusOK,
		body: []byte(fmt.Sprintf(`{"status":"ok","workers":%d}`, s.cfg.Workers))})
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.metricsReqs.Add(1)
	s.writeReply(w, reply{status: http.StatusOK, body: []byte(s.met.vars.String())})
}
