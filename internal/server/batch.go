package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/httpbody"
	"github.com/mia-rt/mia/internal/ndjson"
	"github.com/mia-rt/mia/internal/wire"
)

// batchItem is one edit scenario: a swap sequence with the same semantics
// as the unary reschedule endpoint (each batch item is evaluated by exactly
// the code path a unary request takes). An empty swap list re-evaluates the
// baseline orders.
type batchItem struct {
	Swaps []swapEdit `json:"swaps"`
}

// handleBatch serves POST /v1/batch. The graph is resolved and compiled on
// the handler goroutine (same as analyze), then the scenario list is
// admitted to the worker pool as ONE job: a batch occupies one queue slot
// and one worker for its whole duration, so admission control and
// fairness reason about batches the same way they reason about unary
// requests — a full queue answers 429 before the first byte is streamed.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.met.batch.Add(1)
	img, items, errRep := s.parseBatch(r)
	if errRep != nil {
		s.writeReply(w, *errRep)
		return
	}
	s.met.observeBatchItems(len(items))
	s.streamBatch(w, r, img, items)
}

// parseBatch resolves a batch request body (its envelope is
// wire.ParseBatch's) into a registered image plus the scenario list, each
// item decoded strictly. On any failure it returns the reply to send
// instead.
func (s *Server) parseBatch(r *http.Request) (*engine.Image, []batchItem, *reply) {
	fail := func(status int, msg string) (*engine.Image, []batchItem, *reply) {
		return nil, nil, &reply{status: status, body: errBody(msg)}
	}
	body, err := httpbody.Read(nil, r, s.cfg.MaxRequestBytes)
	if err != nil {
		return fail(http.StatusBadRequest, err.Error())
	}
	b, err := wire.ParseBatch(r.Header.Get("Content-Type"), body)
	if err != nil {
		return fail(http.StatusBadRequest, err.Error())
	}
	items := make([]batchItem, len(b.Items))
	for i, raw := range b.Items {
		if err := wire.DecodeObject(raw, &items[i]); err != nil {
			return fail(http.StatusBadRequest, fmt.Sprintf("parsing batch item %d: %v", i, err))
		}
	}
	var img *engine.Image
	if b.Blob != nil {
		if img, err = engine.CompileFromWire(b.Blob, s.cfg.Sched); err != nil {
			return fail(http.StatusBadRequest, err.Error())
		}
		s.met.ingestWire.Add(1)
	} else {
		var rep *reply
		if img, rep = s.resolveGraph(b.Hash, b.Graph); rep != nil {
			return nil, nil, rep
		}
	}
	return s.images.put(img.Fingerprint(), img), items, nil
}

// streamBatch admits the scenario list as one worker job and streams its
// NDJSON results. The worker evaluates every item against img itself, so
// the registry dropping the fingerprint meanwhile cannot fail the batch.
// The result channel is buffered for the full batch, so the worker never
// blocks on the handler: a slow or gone client cannot pin a worker, and on
// cancellation every result computed so far is still in the channel for
// the handler's final drain.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, img *engine.Image, items []batchItem) {
	start := time.Now()
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	type result struct {
		i   int
		rep reply
	}
	results := make(chan result, len(items))
	hash := img.Fingerprint()
	if !s.admit(w, func(wk *worker) {
		if s.gate != nil {
			s.gate()
		}
		defer close(results)
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
				return wk.whatIf(ctx, s, img, hash, swaps, memo)
			})
			results <- result{i, rep}
		}
	}) {
		return
	}

	sw := ndjson.Start(w, &s.met.streamedBytes)
	s.met.countResponse(http.StatusOK)
	// Every written line is one completed item: the count and the write
	// are the same statement.
	emit := func(res result) { sw.Line(resultLine(res.i, res.rep)) }

stream:
	for {
		select {
		case res, ok := <-results:
			if !ok {
				break stream
			}
			emit(res)
			// Coalesced streaming: flush only when no further result is
			// already waiting, so a fast worker does not force one syscall
			// per line while a slow one still streams every result as it
			// lands.
			if len(results) == 0 {
				sw.Flush()
			}
		case <-ctx.Done():
			// Interrupted — client disconnect or deadline. Write every
			// result already computed (they sit in the buffered channel),
			// then stop; the in-flight item, if any, is abandoned to the
			// worker, which observes the dead context and returns.
			for {
				select {
				case res, ok := <-results:
					if !ok {
						break stream
					}
					emit(res)
				default:
					break stream
				}
			}
		}
	}

	// The single trailer. Whatever combination of client disconnect,
	// deadline expiry, drain, and worker completion ended the loop, the
	// truncation reason is chosen by fixed precedence — deadline beats
	// client-gone beats draining — so the same race always reports the same
	// reason.
	trailer := ndjson.BatchTrailer{Items: len(items), Completed: sw.Lines(), Truncated: sw.Lines() < len(items)}
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
	sw.End(trailer.Line())
	s.met.observeLatency(time.Since(start))
	s.met.observeCompletion(time.Now())
}

// resultLine renders item i's reply as its NDJSON result line: the status
// the same scenario gets as a unary request, and that reply's body — the
// schedule under "result" on success, spliced in verbatim (the worker
// marshaled it), or the error message otherwise.
func resultLine(i int, rep reply) []byte {
	b := make([]byte, 0, len(rep.body)+48)
	b = ndjson.AppendIndex(b, i)
	b = append(b, `"status":`...)
	b = strconv.AppendInt(b, int64(rep.status), 10)
	if rep.status == http.StatusOK {
		b = append(b, `,"result":`...)
		b = append(b, rep.body...)
	} else {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(rep.body, &e) != nil || e.Error == "" {
			e.Error = http.StatusText(rep.status)
		}
		msg, _ := json.Marshal(e.Error)
		b = append(b, `,"error":`...)
		b = append(b, msg...)
	}
	return append(b, '}', '\n')
}
