package gen

import "github.com/mia-rt/mia/internal/model"

// Figure1 builds the worked example of the paper's Figure 1: five tasks on
// four cores of a shared-bank round-robin platform.
//
//	mapping:      n0→PE0; n1, n2→PE1; n3→PE2; n4→PE3
//	WCETs:        2, 2, 1, 3, 2
//	min releases: n0, n3: 0; n1: 2; n2, n4: 4
//	edges (1 written word each): n0→n1, n0→n2, n0→n4, n1→n2, n3→n4
//
// Ignoring interference the schedule spans 6 cycles; under the Kalray
// round-robin arbiter the paper's final schedule shows interference 1 on
// n0, 1 on n1 and 2 on n3, for a global WCRT of 7 cycles. The tests in
// sched/incremental reproduce those exact numbers.
func Figure1() *model.Graph {
	b := model.NewBuilder(4, 1)
	b.SetBankPolicy(model.SharedBank)
	n0 := b.AddTask(model.TaskSpec{Name: "n0", WCET: 2, Core: 0})
	n1 := b.AddTask(model.TaskSpec{Name: "n1", WCET: 2, Core: 1, MinRelease: 2})
	n2 := b.AddTask(model.TaskSpec{Name: "n2", WCET: 1, Core: 1, MinRelease: 4})
	n3 := b.AddTask(model.TaskSpec{Name: "n3", WCET: 3, Core: 2})
	n4 := b.AddTask(model.TaskSpec{Name: "n4", WCET: 2, Core: 3, MinRelease: 4})
	b.AddEdge(n0, n1, 1)
	b.AddEdge(n0, n2, 1)
	b.AddEdge(n0, n4, 1)
	b.AddEdge(n1, n2, 1)
	b.AddEdge(n3, n4, 1)
	return b.MustBuild()
}

// Figure2 builds the task set of the paper's Figure 2, which illustrates
// the incremental algorithm's cursor mechanism: eleven tasks on four cores
// (n0, n1, n2→PE0; n3, n4→PE1; n5, n6, n7→PE2; n8, n9, n10→PE3). WCETs are
// chosen so that at the cursor event t = 5 the algorithm performs exactly
// the step of the paper's running example: C = {n6}, A = {n0, n4, n9},
// O = {n7}. The tasks exchange no memory accesses — the figure illustrates
// the Closed/Alive/Future partition, not interference.
func Figure2() *model.Graph {
	b := model.NewBuilder(4, 4)
	wcets := map[string]struct {
		core model.CoreID
		wcet model.Cycles
	}{
		"n0": {0, 10}, "n1": {0, 3}, "n2": {0, 4},
		"n3": {1, 2}, "n4": {1, 8},
		"n5": {2, 2}, "n6": {2, 3}, "n7": {2, 4},
		"n8": {3, 1}, "n9": {3, 9}, "n10": {3, 5},
	}
	for i := 0; i <= 10; i++ {
		name := "n" + itoa(i)
		spec := wcets[name]
		b.AddTask(model.TaskSpec{Name: name, WCET: spec.wcet, Core: spec.core})
	}
	return b.MustBuild()
}

// Avionics builds a realistic dataflow application in the style of the
// ROSACE longitudinal flight-controller case study often used with this
// analysis framework: sensor filters feeding control laws feeding actuator
// commands, iterated over two control periods, mapped on four cores with
// per-core memory banks. It is the "domain" example exercised by
// `miasched -example avionics` and the integration tests; WCETs and access
// counts are representative, not measured.
func Avionics() *model.Graph {
	b := model.NewBuilder(4, 4)

	add := func(name string, core model.CoreID, wcet model.Cycles, local model.Accesses) model.TaskID {
		return b.AddTask(model.TaskSpec{Name: name, Core: core, WCET: wcet, Local: local})
	}

	// Period 1.
	eng := add("engine", 0, 300, 120)
	elev := add("elevator", 1, 280, 110)
	dyn := add("aircraft_dyn", 2, 900, 400)
	hF := add("h_filter", 0, 220, 90)
	azF := add("az_filter", 1, 210, 85)
	vzF := add("vz_filter", 2, 215, 88)
	qF := add("q_filter", 3, 205, 80)
	vaF := add("va_filter", 3, 208, 82)
	alt := add("altitude_hold", 0, 250, 100)
	vzC := add("vz_control", 1, 260, 105)
	vaC := add("va_control", 2, 255, 102)

	b.AddEdge(eng, dyn, 40)
	b.AddEdge(elev, dyn, 40)
	b.AddEdge(dyn, hF, 30)
	b.AddEdge(dyn, azF, 30)
	b.AddEdge(dyn, vzF, 30)
	b.AddEdge(dyn, qF, 30)
	b.AddEdge(dyn, vaF, 30)
	b.AddEdge(hF, alt, 20)
	b.AddEdge(azF, vzC, 20)
	b.AddEdge(vzF, vzC, 20)
	b.AddEdge(qF, vzC, 20)
	b.AddEdge(alt, vzC, 15)
	b.AddEdge(vaF, vaC, 20)
	b.AddEdge(qF, vaC, 20)

	// Period 2: the control outputs drive the next actuator step.
	eng2 := add("engine'", 0, 300, 120)
	elev2 := add("elevator'", 1, 280, 110)
	b.AddEdge(vaC, eng2, 25)
	b.AddEdge(vzC, elev2, 25)

	return b.MustBuild()
}

// itoa converts a small non-negative int without pulling in strconv for a
// two-digit use case.
func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + itoa(i%10)
}
