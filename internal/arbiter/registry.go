package arbiter

import (
	"fmt"
	"sort"

	"github.com/mia-rt/mia/internal/model"
)

// Spec selects an arbitration policy by name with its numeric parameters; it
// is the command-line-friendly way to construct arbiters in the cmd/ tools.
type Spec struct {
	// Policy is one of the names Known returns.
	Policy string
	// WordLatency is the per-access service time in cycles (default 1).
	WordLatency int64
	// GroupSize is the first-level fan-in of "tree-rr" (default 2).
	GroupSize int
	// Slots is the frame length of "tdm" and the root fan-in of "tree-rr"
	// (default 8 for the tree; callers pass the platform's core count).
	// SlotLength is the "tdm" slot length in cycles (default 1).
	Slots      int
	SlotLength int64
}

// policies maps policy names to constructors.
var policies = map[string]func(Spec) Arbiter{
	"rr": func(s Spec) Arbiter {
		return NewRoundRobin(cycles(s.WordLatency))
	},
	"tdm": func(s Spec) Arbiter {
		return NewTDM(s.Slots, cycles(s.SlotLength))
	},
	"fp": func(s Spec) Arbiter {
		return NewFixedPriority(cycles(s.WordLatency))
	},
	"none": func(Spec) Arbiter {
		return NewNone()
	},
	"tree-rr": func(s Spec) Arbiter {
		g := s.GroupSize
		if g == 0 {
			g = 2
		}
		slots := s.Slots
		if slots == 0 {
			slots = 8
		}
		return NewTreeRR(cycles(s.WordLatency), g, slots)
	},
}

// New builds the arbiter described by spec.
func New(spec Spec) (Arbiter, error) {
	ctor, ok := policies[spec.Policy]
	if !ok {
		return nil, fmt.Errorf("arbiter: unknown policy %q (known: %v)", spec.Policy, Known())
	}
	return ctor(spec), nil
}

// Known lists the registered policy names in sorted order.
func Known() []string {
	names := make([]string, 0, len(policies))
	//mialint:ignore determinism -- keys are collected then sorted below; iteration order never reaches the caller
	for name := range policies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func cycles(v int64) model.Cycles {
	if v < 1 {
		return 1
	}
	return model.Cycles(v)
}
