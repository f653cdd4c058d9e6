// Package sim is a cycle-level discrete simulator of the modeled platform:
// cores executing the time-triggered schedule and pushing their memory
// accesses through per-bank round-robin arbiters, one word per service
// slot. It stands in for the Kalray MPPA-256 hardware the paper targets
// (the paper itself never measures hardware — it analyzes against the
// arbiter model — so the simulator's role here is validation, not
// evaluation).
//
// Its purpose is experiment E9: demonstrating that the analytic worst-case
// response times are sound — for any access pattern, any actual execution
// time up to the WCET, and any seed, every simulated task finishes no later
// than its analyzed release + response time, and the time-triggered release
// discipline is respected exactly.
//
// The simulator executes tasks at their *declared* release dates (tasks
// never start early even when inputs are ready — the time-triggered
// property that makes the analysis compositional) and models each core as a
// sequence of unit operations: compute cycles and bank accesses. A task
// with WCET C and compiled demand D issues min(ΣD, ⌊C/L⌋) accesses — a task
// cannot physically perform more bus transactions than fit in its isolated
// execution time — while the analysis conservatively charges the full
// declared demand.
package sim

import (
	"fmt"
	"math/rand"

	"github.com/mia-rt/mia/internal/model"
)

// Pattern selects when a task issues its memory accesses within its
// execution.
type Pattern int

const (
	// Front issues all accesses back-to-back at the start of the task:
	// the pattern that maximizes burst contention.
	Front Pattern = iota
	// Back issues all accesses at the end of the task.
	Back
	// Spread interleaves accesses uniformly with compute cycles.
	Spread
	// Shuffled permutes the operation sequence pseudo-randomly (seeded).
	Shuffled
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Front:
		return "front"
	case Back:
		return "back"
	case Spread:
		return "spread"
	case Shuffled:
		return "shuffled"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Config parameterizes a simulation run.
type Config struct {
	// Pattern is the access-issue pattern (default Front).
	Pattern Pattern
	// Seed drives Shuffled patterns and ExecJitter.
	Seed int64
	// WordLatency is the bank service time per access (default 1). It must
	// match the latency the analysis arbiter used for the comparison to be
	// meaningful.
	WordLatency model.Cycles
	// ExecNumerator/ExecDenominator scale actual execution demand below
	// the WCET (e.g. 3/4 runs every task at 75% of its worst case; both 0
	// means full WCET). The analysis must stay sound for any actual
	// duration up to the WCET.
	ExecNumerator, ExecDenominator int64
	// Horizon aborts a runaway simulation (0 picks a generous bound from
	// the workload: releases + total work + total service, times four).
	Horizon model.Cycles
	// TraceGrant, when non-nil, observes every bank grant: the cycle it
	// starts, the bank, and the granted core. Used by the fairness tests
	// to verify the arbiter's round-robin property.
	TraceGrant func(t model.Cycles, b model.BankID, core model.CoreID)
}

// Outcome reports the simulated execution.
type Outcome struct {
	// Start and Finish are each task's simulated execution window.
	Start  []model.Cycles
	Finish []model.Cycles
	// Stall is the number of cycles the task spent waiting for bank
	// grants: its actually-suffered interference.
	Stall []model.Cycles
	// Makespan is the last finish.
	Makespan model.Cycles
	// Cycles is the number of simulated clock cycles.
	Cycles model.Cycles
}

// op is one unit step of a task: compute (bank == -1) or an access.
type op struct {
	bank model.BankID // -1 for compute
}

// coreState is one core walking its task list.
type coreState struct {
	tasks []model.TaskID // execution order
	idx   int            // current task index
	ops   []op           // remaining ops of the current task
	opPos int
	start model.Cycles // current task start
	stall model.Cycles
}

// bankState is one round-robin arbitrated bank.
type bankState struct {
	busyUntil model.Cycles
	lastCore  int // last granted core, for the round-robin pointer
	servingTo int // core whose access completes at busyUntil, -1 if none
}

// Run simulates g under the time-triggered schedule given by release. The
// release slice must hold one entry per task (typically sched.Result.Release).
func Run(g *model.Graph, release []model.Cycles, cfg Config) (*Outcome, error) {
	n := g.NumTasks()
	if len(release) != n {
		return nil, fmt.Errorf("sim: %d release dates for %d tasks", len(release), n)
	}
	latency := cfg.WordLatency
	if latency < 1 {
		latency = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	out := &Outcome{
		Start:  make([]model.Cycles, n),
		Finish: make([]model.Cycles, n),
		Stall:  make([]model.Cycles, n),
	}

	cores := make([]coreState, g.Cores)
	for k := range cores {
		cores[k] = coreState{tasks: g.Order(model.CoreID(k)), idx: -1}
	}
	banks := make([]bankState, g.Banks)
	for b := range banks {
		banks[b] = bankState{servingTo: -1}
	}

	horizon := cfg.Horizon
	if horizon <= 0 {
		var work model.Cycles
		for i, wcet := range g.WCET {
			work += wcet + model.ScaleAccesses(g.TotalDemand(model.TaskID(i)), latency)
			if g.MinRelease[i] > horizon {
				horizon = g.MinRelease[i]
			}
		}
		for _, r := range release {
			if r > horizon {
				horizon = r
			}
		}
		horizon = 4 * (horizon + work + 16)
	}

	remaining := n
	for t := model.Cycles(0); remaining > 0; t++ {
		if t > horizon {
			return nil, fmt.Errorf("sim: horizon %d exceeded with %d tasks unfinished", horizon, remaining)
		}

		// 1. Complete bank services due at t.
		for b := range banks {
			bank := &banks[b]
			if bank.servingTo >= 0 && bank.busyUntil == t {
				core := &cores[bank.servingTo]
				bank.servingTo = -1
				core.opPos++
			}
		}

		// 2. Finalize finished tasks and start tasks whose release date is
		// t (time-triggered: exactly at the declared release, never
		// earlier). The inner loop handles chains of zero-length tasks
		// releasing at the same instant.
		for k := range cores {
			core := &cores[k]
			for {
				if core.ops != nil && core.opPos >= len(core.ops) {
					// Current task finished (its last op completed at or
					// before this cycle boundary).
					id := core.tasks[core.idx]
					out.Finish[id] = t
					out.Stall[id] = core.stall
					core.ops = nil
					remaining--
				}
				if core.ops != nil {
					break // task in progress
				}
				next := core.idx + 1
				if next >= len(core.tasks) {
					break // core done
				}
				id := core.tasks[next]
				if release[id] > t {
					break // not released yet
				}
				if release[id] < t {
					// The core was still busy at the task's release date:
					// the schedule is not a valid time-triggered schedule
					// for this execution.
					return nil, fmt.Errorf("sim: core %d busy past release %d of %s (time-triggered violation)",
						k, release[id], id)
				}
				core.idx = next
				core.ops = buildOps(g.WCET[id], g.DemandRow(id), cfg, latency, rng)
				core.opPos = 0
				core.start = t
				core.stall = 0
				out.Start[id] = t
				if len(core.ops) > 0 {
					break
				}
				// Zero-work task: finalize in the next loop turn.
			}
		}

		// 3. Collect access requests and grant one per free bank in
		// round-robin order.
		for b := range banks {
			bank := &banks[b]
			if bank.servingTo >= 0 {
				continue // busy
			}
			// Scan cores starting after the last granted one.
			for i := 1; i <= len(cores); i++ {
				k := (bank.lastCore + i) % len(cores)
				core := &cores[k]
				if core.ops == nil || core.opPos >= len(core.ops) {
					continue
				}
				o := core.ops[core.opPos]
				if o.bank != model.BankID(b) {
					continue
				}
				bank.servingTo = k
				bank.lastCore = k
				bank.busyUntil = t + latency
				if cfg.TraceGrant != nil {
					cfg.TraceGrant(t, model.BankID(b), model.CoreID(k))
				}
				break
			}
		}

		// 4. Advance compute ops; count stall cycles for ungranted
		// requests.
		for k := range cores {
			core := &cores[k]
			if core.ops == nil || core.opPos >= len(core.ops) {
				continue
			}
			o := core.ops[core.opPos]
			if o.bank < 0 {
				core.opPos++
				continue
			}
			// Access op: if no bank is serving this core right now, it is
			// stalled this cycle.
			granted := false
			for b := range banks {
				if banks[b].servingTo == k {
					granted = true
					break
				}
			}
			if !granted {
				core.stall++
			}
		}
	}

	for i := range out.Finish {
		if out.Finish[i] > out.Makespan {
			out.Makespan = out.Finish[i]
		}
		out.Cycles = out.Makespan
	}
	return out, nil
}

// buildOps expands a task, given its WCET and per-bank demand row, into
// its operation sequence under the config.
func buildOps(wcet model.Cycles, demand []model.Accesses, cfg Config, latency model.Cycles, rng *rand.Rand) []op {
	if cfg.ExecDenominator > 0 {
		wcet = model.Cycles(int64(wcet) * cfg.ExecNumerator / cfg.ExecDenominator)
	}
	// Accesses the task can physically issue within its execution time.
	budget := model.Accesses(int64(wcet) / int64(latency))
	var accesses []op
	for b, d := range demand {
		for j := model.Accesses(0); j < d && model.Accesses(len(accesses)) < budget; j++ {
			accesses = append(accesses, op{bank: model.BankID(b)})
		}
	}
	compute := wcet - model.ScaleAccesses(model.Accesses(len(accesses)), latency)
	ops := make([]op, 0, int(compute)+len(accesses))
	switch cfg.Pattern {
	case Back:
		for c := model.Cycles(0); c < compute; c++ {
			ops = append(ops, op{bank: -1})
		}
		ops = append(ops, accesses...)
	case Spread:
		// Interleave: distribute compute evenly between accesses.
		na := len(accesses)
		if na == 0 {
			for c := model.Cycles(0); c < compute; c++ {
				ops = append(ops, op{bank: -1})
			}
			break
		}
		per := int(compute) / na
		extra := int(compute) % na
		for i, a := range accesses {
			run := per
			if i < extra {
				run++
			}
			for c := 0; c < run; c++ {
				ops = append(ops, op{bank: -1})
			}
			ops = append(ops, a)
		}
	case Shuffled:
		ops = append(ops, accesses...)
		for c := model.Cycles(0); c < compute; c++ {
			ops = append(ops, op{bank: -1})
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	default: // Front
		ops = append(ops, accesses...)
		for c := model.Cycles(0); c < compute; c++ {
			ops = append(ops, op{bank: -1})
		}
	}
	return ops
}
