package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/wire"
)

// batchRequest is the JSON body of POST /v1/batch: one graph — by value or
// by the fingerprint of an earlier analyze — plus an array of edit
// scenarios to evaluate against it. Exactly one of Hash/Graph must be set.
//
// With Content-Type: application/x-mia-wire the body is instead a binary
// wire blob immediately followed by the JSON object {"items":[...]} — the
// blob's header states its exact size, so the two parts need no separator.
type batchRequest struct {
	Hash  string          `json:"hash,omitempty"`
	Graph json.RawMessage `json:"graph,omitempty"`
	Items []batchItem     `json:"items"`
}

// batchItem is one edit scenario: a swap sequence with the same semantics
// as the unary reschedule endpoint (each batch item is evaluated by exactly
// the code path a unary request takes). An empty swap list re-evaluates the
// baseline orders.
type batchItem struct {
	Swaps []swapEdit `json:"swaps"`
}

// batchLine is one NDJSON result line: the item's index in the request, the
// status the same scenario would have received as a unary response, and
// that response's body — the schedule under "result" on success, the error
// message otherwise.
type batchLine struct {
	Index  int             `json:"index"`
	Status int             `json:"status"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// batchTrailer is the final NDJSON line of every batch response. Truncated
// batches — client gone, deadline expired, server draining mid-stream —
// still carry every completed result above the trailer, and the trailer
// says so explicitly (the serving twin of miabench's "# TRUNCATED" CSV
// marker): completed counts the result lines actually written, and Reason
// names the interruption.
type batchTrailer struct {
	Done      bool   `json:"done"`
	Items     int    `json:"items"`
	Completed int    `json:"completed"`
	Truncated bool   `json:"truncated"`
	Reason    string `json:"reason,omitempty"`
}

// handleBatch serves POST /v1/batch. The graph is resolved and compiled on
// the handler goroutine (same as analyze), then the scenario list is
// admitted to the worker pool as ONE job: a batch occupies one queue slot
// and one worker for its whole duration, so admission control and
// fairness reason about batches the same way they reason about unary
// requests — a full queue answers 429 before the first byte is streamed.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.met.batch.Add(1)
	hash, items, errRep := s.parseBatch(r)
	if errRep != nil {
		s.writeReply(w, *errRep)
		return
	}
	s.met.observeBatchItems(len(items))
	s.streamBatch(w, r, hash, items)
}

// parseBatch resolves a batch request body into a registered image
// fingerprint plus the scenario list. On any failure it returns the reply
// to send instead.
func (s *Server) parseBatch(r *http.Request) (string, []batchItem, *reply) {
	fail := func(status int, msg string) (string, []batchItem, *reply) {
		return "", nil, &reply{status: status, body: errBody(msg)}
	}
	var img *engine.Image
	var items []batchItem
	if isWire(r) {
		body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, s.cfg.MaxRequestBytes))
		if err != nil {
			return fail(http.StatusBadRequest, err.Error())
		}
		n, err := wire.Size(body)
		if err != nil || n > len(body) {
			return fail(http.StatusBadRequest, "batch body must start with a wire graph blob")
		}
		if img, err = engine.CompileFromWire(body[:n], s.cfg.Sched); err != nil {
			return fail(http.StatusBadRequest, err.Error())
		}
		s.met.ingestWire.Add(1)
		var rest struct {
			Items []batchItem `json:"items"`
		}
		dec := json.NewDecoder(bytes.NewReader(body[n:]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rest); err != nil {
			return fail(http.StatusBadRequest, "parsing batch items after wire blob: "+err.Error())
		}
		items = rest.Items
	} else {
		var req batchRequest
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.cfg.MaxRequestBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return fail(http.StatusBadRequest, "parsing batch request: "+err.Error())
		}
		switch {
		case req.Hash != "" && req.Graph != nil:
			return fail(http.StatusBadRequest, "set either hash or graph, not both")
		case req.Hash != "":
			var ok bool
			if img, ok = s.images.get(req.Hash); !ok {
				return fail(http.StatusNotFound,
					"unknown graph hash (analyze it first; the registry is an LRU and may have evicted it)")
			}
		case req.Graph != nil:
			var err error
			if img, err = engine.CompileJSON(req.Graph, s.cfg.Sched); err != nil {
				return fail(http.StatusBadRequest, err.Error())
			}
			s.met.ingestJSON.Add(1)
		default:
			return fail(http.StatusBadRequest, "missing graph: set hash or graph")
		}
		items = req.Items
	}
	if len(items) == 0 {
		return fail(http.StatusBadRequest, "batch has no items")
	}
	hash := img.Fingerprint()
	s.images.put(hash, img)
	return hash, items, nil
}

// streamBatch admits the scenario list as one worker job and streams its
// NDJSON results. The line channel is buffered for the full batch, so the
// worker never blocks on the handler: a slow or gone client cannot pin a
// worker, and on cancellation every line computed so far is still in the
// channel for the handler's final drain.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, hash string, items []batchItem) {
	start := time.Now()
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)

	if s.draining() {
		s.writeReply(w, reply{status: http.StatusServiceUnavailable, body: errBody("draining")})
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	lines := make(chan batchLine, len(items)+1)
	admitted := s.runner.TrySubmit(func(wk *worker) {
		if s.gate != nil {
			s.gate()
		}
		defer close(lines)
		// Per-batch result memo: scenarios that evaluate to the same
		// configuration (same orders fingerprint) are answered once — see
		// whatIf. Worker-confined, dropped with the batch.
		memo := make(map[string]reply, len(items))
		for i := range items {
			if ctx.Err() != nil {
				return // handler writes the truncation trailer
			}
			if s.itemGate != nil {
				s.itemGate(i)
			}
			swaps := items[i].Swaps
			rep := safeJob(ctx, wk, func(ctx context.Context, wk *worker) reply {
				return wk.whatIf(ctx, s, hash, swaps, memo)
			})
			lines <- toBatchLine(i, rep)
		}
	})
	if !admitted {
		s.met.shed.Add(1)
		if s.draining() {
			s.writeReply(w, reply{status: http.StatusServiceUnavailable, body: errBody("draining")})
			return
		}
		w.Header().Set("Retry-After", s.retryAfterHint())
		s.writeReply(w, reply{status: http.StatusTooManyRequests, body: errBody("queue full")})
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	s.met.countResponse(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	completed := 0
	write := func(b []byte) {
		w.Write(b)
		s.met.streamedBytes.Add(int64(len(b)))
	}
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	writeLine := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			return // a line that cannot serialize is dropped, never fatal mid-stream
		}
		write(append(b, '\n'))
	}
	// emit writes one result line and counts it as completed — the count and
	// the write can never diverge because they are the same statement.
	// Success lines splice the worker-marshaled result bytes in verbatim —
	// json.Marshal produced them, so re-encoding the RawMessage would only
	// re-compact already-compact bytes.
	emit := func(line batchLine) {
		if line.Status == http.StatusOK && len(line.Result) > 0 {
			b := make([]byte, 0, len(line.Result)+48)
			b = append(b, `{"index":`...)
			b = strconv.AppendInt(b, int64(line.Index), 10)
			b = append(b, `,"status":200,"result":`...)
			b = append(b, line.Result...)
			b = append(b, '}', '\n')
			write(b)
		} else {
			writeLine(line)
		}
		completed++
	}
	// writeTrailer is the single exit of the stream: whatever combination of
	// client disconnect, deadline expiry, drain, and worker completion races
	// the loop below into finishing, exactly one trailer is written, and its
	// truncation reason is chosen by fixed precedence — deadline beats
	// client-gone beats draining — so the same race always reports the same
	// reason.
	trailerSent := false
	writeTrailer := func() {
		if trailerSent {
			return
		}
		trailerSent = true
		trailer := batchTrailer{Done: true, Items: len(items), Completed: completed,
			Truncated: completed < len(items)}
		if trailer.Truncated {
			switch {
			case errors.Is(ctx.Err(), context.DeadlineExceeded):
				trailer.Reason = "deadline exceeded"
			case ctx.Err() != nil:
				trailer.Reason = "client gone"
			case s.draining():
				trailer.Reason = "draining"
			default:
				trailer.Reason = "interrupted"
			}
		}
		writeLine(trailer)
		flush()
	}

stream:
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				break stream
			}
			emit(line)
			// Coalesced streaming: flush only when no further line is already
			// waiting, so a fast worker does not force one syscall per line
			// while a slow one still streams every result as it lands.
			if len(lines) == 0 {
				flush()
			}
		case <-ctx.Done():
			// Interrupted — client disconnect or deadline. Flush every line
			// already computed (they sit in the buffered channel), then
			// stop; the in-flight item, if any, is abandoned to the worker,
			// which observes the dead context and returns.
			for {
				select {
				case line, ok := <-lines:
					if !ok {
						break stream
					}
					emit(line)
				default:
					break stream
				}
			}
		}
	}

	writeTrailer()
	s.met.observeLatency(time.Since(start))
	s.met.observeCompletion(time.Now())
}

// toBatchLine converts a unary-shaped reply into its NDJSON line.
func toBatchLine(i int, rep reply) batchLine {
	line := batchLine{Index: i, Status: rep.status}
	if rep.status == http.StatusOK {
		line.Result = rep.body
		return line
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(rep.body, &e) == nil && e.Error != "" {
		line.Error = e.Error
	} else {
		line.Error = http.StatusText(rep.status)
	}
	return line
}
