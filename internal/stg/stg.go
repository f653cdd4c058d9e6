// Package stg reads and writes the Standard Task Graph Set format of
// Tobita and Kasahara ("A standard task graph set for fair evaluation of
// multiprocessor scheduling algorithms", Journal of Scheduling 2002) — the
// paper's reference [8] and the origin of its benchmark generation method.
// Importing .stg files lets the analyses run on the published benchmark
// suite; exporting makes this repository's graphs consumable by other STG
// tools.
//
// Format (one graph per file):
//
//	<number of tasks>
//	<task id> <processing time> <number of predecessors> <pred ids...>
//	...
//
// followed by free-form comment lines (conventionally after a line of
// dashes or at EOF). Task IDs are dense from 0; the first and last tasks
// are conventionally zero-cost dummy source and sink nodes, which are kept
// as zero-WCET tasks here.
//
// STG carries no memory-access information. ToProblem synthesizes per-task
// access counts and per-edge write volumes from the paper's parameter
// ranges ([250, 550] and [0, 100]) with a seeded generator, keeping imports
// deterministic and interference analysis meaningful; zero-cost dummy
// nodes receive no accesses.
package stg

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"github.com/mia-rt/mia/internal/mapper"
	"github.com/mia-rt/mia/internal/model"
)

// Graph is a parsed STG file.
type Graph struct {
	// ProcTimes holds each task's processing time.
	ProcTimes []model.Cycles
	// Preds holds each task's predecessor IDs.
	Preds [][]int
}

// Tasks returns the task count.
func (g *Graph) Tasks() int { return len(g.ProcTimes) }

// Read parses an STG file.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	fields := func() ([]string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return strings.Fields(line), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}

	head, err := fields()
	if err != nil {
		return nil, fmt.Errorf("stg: reading task count: %w", err)
	}
	var n int
	if _, err := fmt.Sscan(head[0], &n); err != nil || n < 0 {
		return nil, fmt.Errorf("stg: bad task count %q", head[0])
	}
	// Reject absurd headers before allocating per-task slices: a corrupt
	// count must fail cleanly, not exhaust memory. The largest published STG
	// instances have 5002 tasks; 2²⁰ leaves three orders of magnitude slack.
	if n > model.MaxTasks {
		return nil, fmt.Errorf("stg: task count %d exceeds limit %d", n, model.MaxTasks)
	}
	g := &Graph{ProcTimes: make([]model.Cycles, n), Preds: make([][]int, n)}
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		f, err := fields()
		if err != nil {
			return nil, fmt.Errorf("stg: task %d: %w", i, err)
		}
		if len(f) < 3 {
			return nil, fmt.Errorf("stg: task line %q too short", strings.Join(f, " "))
		}
		var id int
		var proc int64
		var nPreds int
		if _, err := fmt.Sscan(f[0], &id); err != nil {
			return nil, fmt.Errorf("stg: bad task id %q", f[0])
		}
		if id < 0 || id >= n {
			return nil, fmt.Errorf("stg: task id %d outside 0..%d", id, n-1)
		}
		if seen[id] {
			return nil, fmt.Errorf("stg: duplicate task %d", id)
		}
		seen[id] = true
		if _, err := fmt.Sscan(f[1], &proc); err != nil || proc < 0 {
			return nil, fmt.Errorf("stg: task %d: bad processing time %q", id, f[1])
		}
		// Huge-but-finite processing times would overflow the int64 release
		// arithmetic downstream; model.Validate enforces the same bound on
		// every other ingestion path.
		if proc > model.MaxInput {
			return nil, fmt.Errorf("stg: task %d: processing time %d exceeds limit %d", id, proc, int64(model.MaxInput))
		}
		if _, err := fmt.Sscan(f[2], &nPreds); err != nil || nPreds < 0 {
			return nil, fmt.Errorf("stg: task %d: bad predecessor count %q", id, f[2])
		}
		if len(f) != 3+nPreds {
			return nil, fmt.Errorf("stg: task %d: %d predecessor fields, header says %d", id, len(f)-3, nPreds)
		}
		g.ProcTimes[id] = model.Cycles(proc)
		for _, pf := range f[3:] {
			var p int
			if _, err := fmt.Sscan(pf, &p); err != nil || p < 0 || p >= n {
				return nil, fmt.Errorf("stg: task %d: bad predecessor %q", id, pf)
			}
			g.Preds[id] = append(g.Preds[id], p)
		}
	}
	return g, nil
}

// SynthesisParams governs the memory annotations attached to an imported
// STG graph (the format itself has none).
type SynthesisParams struct {
	// AccMin/AccMax bound the per-task local accesses (paper defaults
	// [250, 550]); WriteMin/WriteMax the per-edge volumes ([0, 100]).
	AccMin, AccMax     model.Accesses
	WriteMin, WriteMax model.Accesses
	// Seed drives the deterministic synthesis.
	Seed int64
}

// DefaultSynthesis returns the paper's parameter ranges.
func DefaultSynthesis() SynthesisParams {
	return SynthesisParams{AccMin: 250, AccMax: 550, WriteMin: 0, WriteMax: 100, Seed: 1}
}

// ToProblem converts the parsed graph into an unmapped scheduling problem
// for the given platform, synthesizing memory annotations. Zero-cost tasks
// (the STG dummy source/sink convention) receive no accesses.
func (g *Graph) ToProblem(cores, banks int, p SynthesisParams) (*mapper.Problem, error) {
	if p.AccMax < p.AccMin || p.WriteMax < p.WriteMin {
		return nil, fmt.Errorf("stg: bad synthesis ranges %+v", p)
	}
	// Negative lower bounds would synthesize negative access counts (rejected
	// only later, by model.Validate, with a confusing diagnostic); bounds past
	// MaxInput would pass synthesis but overflow downstream accumulation.
	if p.AccMin < 0 || p.WriteMin < 0 {
		return nil, fmt.Errorf("stg: negative synthesis range %+v", p)
	}
	if p.AccMax > model.MaxInput || p.WriteMax > model.MaxInput {
		return nil, fmt.Errorf("stg: synthesis range %+v exceeds limit %d", p, int64(model.MaxInput))
	}
	rng := rand.New(rand.NewSource(p.Seed))
	randIn := func(lo, hi model.Accesses) model.Accesses {
		if hi == lo {
			return lo
		}
		return lo + model.Accesses(rng.Int63n(int64(hi-lo+1)))
	}
	prob := &mapper.Problem{Cores: cores, Banks: banks}
	for i, proc := range g.ProcTimes {
		spec := mapper.Spec{Name: fmt.Sprintf("t%d", i), WCET: proc}
		if proc > 0 {
			spec.Local = randIn(p.AccMin, p.AccMax)
		}
		prob.Specs = append(prob.Specs, spec)
	}
	for to, preds := range g.Preds {
		for _, from := range preds {
			words := model.Accesses(0)
			if g.ProcTimes[from] > 0 && g.ProcTimes[to] > 0 {
				words = randIn(p.WriteMin, p.WriteMax)
			}
			prob.Edges = append(prob.Edges, mapper.Edge{From: from, To: to, Words: words})
		}
	}
	return prob, nil
}

// Write exports a task graph in STG syntax (processing times and
// dependencies only; memory annotations have no STG representation).
func Write(w io.Writer, g *model.Graph) error {
	if _, err := fmt.Fprintf(w, "%d\n", g.NumTasks()); err != nil {
		return err
	}
	for i := 0; i < g.NumTasks(); i++ {
		id := model.TaskID(i)
		preds := g.Predecessors(id)
		if _, err := fmt.Fprintf(w, "%d %d %d", i, g.Task(id).WCET, len(preds)); err != nil {
			return err
		}
		for _, p := range preds {
			if _, err := fmt.Fprintf(w, " %d", p); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "# generated by mia (github.com/mia-rt/mia)")
	return err
}
