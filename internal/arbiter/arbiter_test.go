package arbiter

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/mia-rt/mia/internal/model"
)

func req(core int, demand int64) Request {
	return Request{Core: model.CoreID(core), Demand: model.Accesses(demand)}
}

// allArbiters returns one representative instance of every policy, for
// property tests that must hold for any arbiter.
func allArbiters() []Arbiter {
	return []Arbiter{
		NewRoundRobin(1),
		NewRoundRobin(3),
		NewTreeRR(1, 2, 8),
		NewTreeRR(2, 4, 4),
		NewTDM(16, 4),
		NewFixedPriority(1),
	}
}

func TestRoundRobinPaperExample(t *testing.T) {
	// Section II.A: three cores each writing 8 words through a 1-word RR
	// bus; each is halted 8+8 = 16 cycles.
	rr := NewRoundRobin(1)
	got := rr.Bound(req(0, 8), []Request{req(1, 8), req(2, 8)}, 0)
	if got != 16 {
		t.Fatalf("Bound = %d, want 16 (paper worked example)", got)
	}
}

func TestRoundRobinMinClamping(t *testing.T) {
	rr := NewRoundRobin(1)
	// A competitor with more demand than the destination can delay it at
	// most once per destination access.
	if got := rr.Bound(req(0, 3), []Request{req(1, 100)}, 0); got != 3 {
		t.Errorf("Bound = %d, want 3", got)
	}
	// A competitor with less demand contributes all of its accesses.
	if got := rr.Bound(req(0, 100), []Request{req(1, 3)}, 0); got != 3 {
		t.Errorf("Bound = %d, want 3", got)
	}
}

func TestRoundRobinLatencyScales(t *testing.T) {
	rr := NewRoundRobin(4)
	if got := rr.Bound(req(0, 2), []Request{req(1, 2)}, 0); got != 8 {
		t.Errorf("Bound = %d, want 8", got)
	}
}

func TestRoundRobinZeroCases(t *testing.T) {
	rr := NewRoundRobin(1)
	if got := rr.Bound(req(0, 0), []Request{req(1, 9)}, 0); got != 0 {
		t.Errorf("zero destination demand: Bound = %d, want 0", got)
	}
	if got := rr.Bound(req(0, 9), nil, 0); got != 0 {
		t.Errorf("no competitors: Bound = %d, want 0", got)
	}
	if got := rr.Bound(req(0, 9), []Request{req(1, 0)}, 0); got != 0 {
		t.Errorf("idle competitor: Bound = %d, want 0", got)
	}
}

func TestNewRoundRobinClampsLatency(t *testing.T) {
	if NewRoundRobin(0).WordLatency != 1 {
		t.Error("latency not clamped to 1")
	}
}

func TestTDMIndependentOfCompetitorDemand(t *testing.T) {
	tdm := NewTDM(4, 2)
	small := tdm.Bound(req(0, 5), []Request{req(1, 1)}, 0)
	large := tdm.Bound(req(0, 5), []Request{req(1, 1000), req(2, 1000)}, 0)
	if small != large {
		t.Errorf("TDM bound varies with competitor demand: %d vs %d", small, large)
	}
	if small != 5*3*2 { // d · (slots-1) · slotLen
		t.Errorf("TDM bound = %d, want 30", small)
	}
	if got := tdm.Bound(req(0, 5), nil, 0); got != 0 {
		t.Errorf("TDM with no competitors = %d, want 0", got)
	}
}

func TestTDMSingleSlot(t *testing.T) {
	tdm := NewTDM(1, 8)
	if got := tdm.Bound(req(0, 5), []Request{req(1, 5)}, 0); got != 0 {
		t.Errorf("single-slot TDM = %d, want 0", got)
	}
}

func TestFixedPriorityAsymmetry(t *testing.T) {
	fp := NewFixedPriority(1)
	// Core 0 (highest priority) delayed only by blocking: min(20, 5) = 5.
	if got := fp.Bound(req(0, 5), []Request{req(1, 20)}, 0); got != 5 {
		t.Errorf("high-priority bound = %d, want 5", got)
	}
	// Core 1 (lower priority) absorbs all of core 0's demand.
	if got := fp.Bound(req(1, 5), []Request{req(0, 20)}, 0); got != 20 {
		t.Errorf("low-priority bound = %d, want 20", got)
	}
}

func TestFixedPriorityCustomPriorities(t *testing.T) {
	fp := &FixedPriority{WordLatency: 1, Priority: func(c model.CoreID) int { return -int(c) }}
	// Now higher core ID = higher priority: core 1 outranks core 0.
	if got := fp.Bound(req(1, 5), []Request{req(0, 20)}, 0); got != 5 {
		t.Errorf("custom priority bound = %d, want 5", got)
	}
}

func TestMonotonicityAllArbiters(t *testing.T) {
	// The schedulers' soundness rests on: adding a competitor, or growing a
	// competitor's demand, never decreases the bound (paper §II.C).
	for _, a := range allArbiters() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				dst := req(0, int64(rng.Intn(40)+1))
				var comps []Request
				for c := 1; c < 6; c++ {
					if rng.Intn(2) == 0 {
						comps = append(comps, req(c, int64(rng.Intn(40))))
					}
				}
				base := a.Bound(dst, comps, 0)
				// Adding a fresh competitor:
				withNew := a.Bound(dst, append(append([]Request(nil), comps...), req(6, int64(rng.Intn(40)+1))), 0)
				if withNew < base {
					return false
				}
				// Growing an existing competitor's demand:
				if len(comps) > 0 {
					grown := append([]Request(nil), comps...)
					grown[0].Demand += model.Accesses(rng.Intn(20) + 1)
					if a.Bound(dst, grown, 0) < base {
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestEmptySetIsZeroAllArbiters(t *testing.T) {
	for _, a := range allArbiters() {
		if got := a.Bound(req(0, 17), nil, 0); got != 0 {
			t.Errorf("%s: Bound(∅) = %d, want 0", a.Name(), got)
		}
	}
}

func TestAdditivityFlagMatchesBehavior(t *testing.T) {
	// For arbiters that declare Additive(), Bound must decompose as a sum
	// of singleton bounds.
	for _, a := range allArbiters() {
		if !a.Additive() {
			continue
		}
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				dst := req(0, int64(rng.Intn(40)+1))
				var comps []Request
				for c := 1; c < 6; c++ {
					comps = append(comps, req(c, int64(rng.Intn(40))))
				}
				whole := a.Bound(dst, comps, 0)
				var sum model.Cycles
				for _, c := range comps {
					sum += a.Bound(dst, []Request{c}, 0)
				}
				return whole == sum
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Known() {
		a, err := New(Spec{Policy: name, WordLatency: 1, Slots: 4, SlotLength: 1})
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if a.Name() == "" {
			t.Errorf("%q has empty Name", name)
		}
	}
	if _, err := New(Spec{Policy: "nonsense"}); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("unknown policy error = %v", err)
	}
	known := Known()
	for i := 1; i < len(known); i++ {
		if known[i-1] >= known[i] {
			t.Errorf("Known() not sorted: %v", known)
		}
	}
}

func TestNames(t *testing.T) {
	cases := map[string]Arbiter{
		"round-robin(L=1)":    NewRoundRobin(1),
		"tdm(slots=4,len=2)":  NewTDM(4, 2),
		"fixed-priority(L=1)": NewFixedPriority(1),
	}
	for want, a := range cases {
		if got := a.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}
