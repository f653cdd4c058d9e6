package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// chromeEvent is one entry of the Chrome trace-event format ("Trace Event
// Format", the JSON array flavor), loadable in chrome://tracing and
// Perfetto. Durations use the schedule's cycle count as microseconds, which
// preserves proportions.
type chromeEvent struct {
	Name     string         `json:"name"`
	Phase    string         `json:"ph"`
	Time     model.Cycles   `json:"ts"`
	Duration model.Cycles   `json:"dur,omitempty"`
	PID      int            `json:"pid"`
	TID      int            `json:"tid"`
	Args     map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports a schedule in the Chrome trace-event format: one
// "process" for the platform, one "thread" per core, one complete event per
// task spanning its execution window, annotated with WCET and interference.
// Open the output in chrome://tracing or https://ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, g *model.Graph, res *sched.Result) error {
	events := make([]chromeEvent, 0, g.NumTasks()+g.Cores)
	for k := 0; k < g.Cores; k++ {
		events = append(events, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   k,
			Args:  map[string]any{"name": fmt.Sprintf("PE%d", k)},
		})
	}
	for i := 0; i < g.NumTasks(); i++ {
		id := model.TaskID(i)
		events = append(events, chromeEvent{
			Name:     g.Name(id),
			Phase:    "X",
			Time:     res.Release[i],
			Duration: res.Response[i],
			PID:      1,
			TID:      int(g.Core[i]),
			Args: map[string]any{
				"wcet":         g.WCET[i],
				"interference": res.Interference[i],
				"demand":       g.TotalDemand(id),
			},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(events)
}
