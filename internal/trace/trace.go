// Package trace records and exports what the analyses compute: schedule
// tables (CSV), incremental-scheduler event streams (text and JSON lines),
// and reconstructions of the Closed/Alive/Future partition at any cursor
// instant — the snapshot drawn in the paper's Figure 2.
package trace

import (
	"fmt"
	"io"

	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// Recorder accumulates the incremental scheduler's event stream. Plug its
// Hook into sched.Options.Trace.
type Recorder struct {
	Events []sched.Event
}

// Hook returns the callback to install as sched.Options.Trace.
func (r *Recorder) Hook() func(sched.Event) {
	return func(e sched.Event) { r.Events = append(r.Events, e) }
}

// Partition is the three-way split of tasks relative to a cursor instant:
// the state of the paper's Figure 2.
type Partition struct {
	Time   model.Cycles
	Closed []model.TaskID
	Alive  []model.TaskID
	Future []model.TaskID
}

// PartitionAt replays the recorded events and reconstructs the partition
// immediately *after* the event processing at time t (closings and openings
// at t applied). Tasks never opened are Future.
func (r *Recorder) PartitionAt(g *model.Graph, t model.Cycles) Partition {
	state := make(map[model.TaskID]int) // 0 future, 1 alive, 2 closed
	for _, e := range r.Events {
		if e.Time > t {
			break
		}
		switch e.Kind {
		case sched.EventOpen:
			state[e.Task] = 1
		case sched.EventClose:
			state[e.Task] = 2
		}
	}
	p := Partition{Time: t}
	for i := 0; i < g.NumTasks(); i++ {
		id := model.TaskID(i)
		switch state[id] {
		case 2:
			p.Closed = append(p.Closed, id)
		case 1:
			p.Alive = append(p.Alive, id)
		default:
			p.Future = append(p.Future, id)
		}
	}
	return p
}

// String renders the partition in the style of the paper's running example.
func (p Partition) String() string {
	return fmt.Sprintf("t=%d C=%v A=%v F=%v", p.Time, p.Closed, p.Alive, p.Future)
}

// WriteText dumps the recorded events one per line.
func (r *Recorder) WriteText(w io.Writer) error {
	for _, e := range r.Events {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteScheduleCSV exports a computed schedule as CSV: one row per task
// with its mapping, window and interference — the machine-readable form of
// the paper's output (Θ, R).
func WriteScheduleCSV(w io.Writer, g *model.Graph, res *sched.Result) error {
	if _, err := fmt.Fprintln(w, "task,name,core,release,wcet,interference,response,finish"); err != nil {
		return err
	}
	for i := 0; i < g.NumTasks(); i++ {
		id := model.TaskID(i)
		t := g.Task(id)
		_, err := fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d,%d\n",
			i, t.Name, t.Core, res.Release[i], t.WCET, res.Interference[i], res.Response[i], res.Finish(id))
		if err != nil {
			return err
		}
	}
	return nil
}
