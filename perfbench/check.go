package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
	_ "github.com/mia-rt/mia/internal/sched/incremental" // registers the "incremental" engine backend
)

// eng is the backend the shards run (server.Config's default).
var eng = engine.MustNew(engine.Incremental)

// scheduleReply is the part of an analyze/reschedule reply (or a batch
// line's result) the checker compares. Unknown fields are ignored, so a
// reply may grow fields without failing the check.
type scheduleReply struct {
	Hash              string         `json:"hash"`
	Tasks             int            `json:"tasks"`
	Makespan          model.Cycles   `json:"makespan"`
	TotalInterference model.Cycles   `json:"totalInterference"`
	Release           []model.Cycles `json:"release"`
	Response          []model.Cycles `json:"response"`
	Interference      []model.Cycles `json:"interference"`
}

func parseSchedule(b []byte) (*scheduleReply, error) {
	var r scheduleReply
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("reply is not a schedule: %w", err)
	}
	return &r, nil
}

// oracleReply analyzes g cold, in-process, with the shards' default
// options, and shapes the outcome like a reply.
func oracleReply(g *model.Graph) (*scheduleReply, error) {
	img, err := engine.Compile(g, sched.Options{})
	if err != nil {
		return nil, err
	}
	res, err := eng.Analyze(context.Background(), img)
	if err != nil {
		return nil, err
	}
	return &scheduleReply{
		Hash:              img.Fingerprint(),
		Tasks:             img.NumTasks,
		Makespan:          res.Makespan,
		TotalInterference: res.TotalInterference(),
		Release:           append([]model.Cycles(nil), res.Release...),
		Response:          append([]model.Cycles(nil), res.Response...),
		Interference:      append([]model.Cycles(nil), res.Interference...),
	}, nil
}

// sameSchedule reports the first difference between a served reply and
// the oracle's.
func sameSchedule(got, want *scheduleReply) error {
	switch {
	case got.Hash != want.Hash:
		return fmt.Errorf("hash %.16s, oracle %.16s", got.Hash, want.Hash)
	case got.Tasks != want.Tasks:
		return fmt.Errorf("tasks %d, oracle %d", got.Tasks, want.Tasks)
	case got.Makespan != want.Makespan:
		return fmt.Errorf("makespan %d, oracle %d", got.Makespan, want.Makespan)
	case got.TotalInterference != want.TotalInterference:
		return fmt.Errorf("total interference %d, oracle %d", got.TotalInterference, want.TotalInterference)
	}
	for name, pair := range map[string][2][]model.Cycles{
		"release":      {got.Release, want.Release},
		"response":     {got.Response, want.Response},
		"interference": {got.Interference, want.Interference},
	} {
		a, b := pair[0], pair[1]
		if len(a) != len(b) {
			return fmt.Errorf("%s has %d entries, oracle %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("%s[%d] = %d, oracle %d", name, i, a[i], b[i])
			}
		}
	}
	return nil
}

// batchLine is one parsed NDJSON line of a batch reply: a result line or
// the trailer.
type batchLine struct {
	Index     *int            `json:"index"`
	Status    int             `json:"status"`
	Result    json.RawMessage `json:"result"`
	Error     string          `json:"error"`
	Done      bool            `json:"done"`
	Items     int             `json:"items"`
	Completed int             `json:"completed"`
	Truncated bool            `json:"truncated"`
	Reason    string          `json:"reason"`
}

// parseBatch splits a batch reply into its result lines by item index and
// enforces the stream protocol: every index in [0, items) exactly once,
// each with status 200, then exactly one untruncated trailer as the last
// line.
func parseBatch(body []byte, items int) ([]json.RawMessage, error) {
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	results := make([]json.RawMessage, items)
	trailers := 0
	for n, raw := range lines {
		var l batchLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("line %d is not JSON: %w", n, err)
		}
		if l.Done {
			trailers++
			if n != len(lines)-1 {
				return nil, fmt.Errorf("trailer at line %d of %d", n, len(lines))
			}
			if l.Truncated || l.Items != items || l.Completed != items {
				return nil, fmt.Errorf("trailer items=%d completed=%d truncated=%v (%s), want %d complete",
					l.Items, l.Completed, l.Truncated, l.Reason, items)
			}
			continue
		}
		if l.Index == nil || *l.Index < 0 || *l.Index >= items {
			return nil, fmt.Errorf("line %d has no valid index", n)
		}
		if results[*l.Index] != nil {
			return nil, fmt.Errorf("index %d appears twice", *l.Index)
		}
		if l.Status != 200 {
			return nil, fmt.Errorf("item %d: status %d: %s", *l.Index, l.Status, l.Error)
		}
		results[*l.Index] = l.Result
	}
	if trailers != 1 {
		return nil, fmt.Errorf("%d trailers, want exactly 1", trailers)
	}
	for i, r := range results {
		if r == nil {
			return nil, fmt.Errorf("index %d missing", i)
		}
	}
	return results, nil
}

// editedGraph applies swaps to a clone of g, as a reschedule request
// applies them to the registered graph's orders.
func editedGraph(g *model.Graph, swaps []Swap) *model.Graph {
	c := g.Clone()
	for _, s := range swaps {
		c.SwapOrder(model.CoreID(s.Core), s.Pos)
	}
	return c
}
