package arbiter

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTreeRRFlatDegenerate(t *testing.T) {
	flat := NewRoundRobin(1)
	tree := NewTreeRR(1) // no levels
	single := NewTreeRR(1, 16)
	dst := req(0, 10)
	comps := []Request{req(1, 3), req(2, 20), req(5, 7)}
	want := flat.Bound(dst, comps, 0)
	if got := tree.Bound(dst, comps, 0); got != want {
		t.Errorf("no-level tree = %d, flat = %d", got, want)
	}
	if got := single.Bound(dst, comps, 0); got != want {
		t.Errorf("single-stage tree = %d, flat = %d", got, want)
	}
}

func TestTreeRRMPPAExample(t *testing.T) {
	// MPPA pairing [2, 8]: dst core 0, pair sibling core 1, pair-1 cores 2
	// and 3. Sibling charged individually; pair 1 aggregated.
	tree := NewTreeRR(1, 2, 8)
	got := tree.Bound(req(0, 10), []Request{req(1, 4), req(2, 6), req(3, 7)}, 0)
	// min(4,10) + min(6+7,10) = 4 + 10 = 14.
	if got != 14 {
		t.Fatalf("Bound = %d, want 14", got)
	}
}

func TestTreeRRThreeLevels(t *testing.T) {
	// [2, 2, 2]: 8 ports. dst port 0. Ports 4..7 form the far half: all
	// aggregate into ONE subtree term at the root stage.
	tree := NewTreeRR(1, 2, 2, 2)
	comps := []Request{req(4, 9), req(5, 9), req(6, 9), req(7, 9)}
	got := tree.Bound(req(0, 10), comps, 0)
	if got != 10 { // min(36, 10)
		t.Fatalf("Bound = %d, want 10", got)
	}
	// Port 1 (pair sibling) and port 2 (same quad, other pair) are
	// separate terms.
	got = tree.Bound(req(0, 10), []Request{req(1, 3), req(2, 4)}, 0)
	if got != 7 {
		t.Fatalf("Bound = %d, want 7", got)
	}
}

func TestTreeRRSamePortWraparound(t *testing.T) {
	// Capacity 4 ([2,2]): core 4 wraps onto port 0 = dst's port and is
	// charged individually.
	tree := NewTreeRR(1, 2, 2)
	if got := tree.Bound(req(0, 10), []Request{req(4, 3)}, 0); got != 3 {
		t.Fatalf("same-port competitor = %d, want 3", got)
	}
}

func TestTreeRRNeverExceedsFlat(t *testing.T) {
	// Aggregation can only tighten: tree bound ≤ flat bound, and deeper
	// trees never beat the destination demand cap per group.
	flat := NewRoundRobin(1)
	trees := []*TreeRR{NewTreeRR(1, 2, 8), NewTreeRR(1, 4, 4), NewTreeRR(1, 2, 2, 2, 2)}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dst := req(rng.Intn(16), int64(rng.Intn(60)+1))
		var comps []Request
		for c := 0; c < 16; c++ {
			if c != int(dst.Core) && rng.Intn(2) == 0 {
				comps = append(comps, req(c, int64(rng.Intn(60))))
			}
		}
		f := flat.Bound(dst, comps, 0)
		for _, tr := range trees {
			if tr.Bound(dst, comps, 0) > f {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeRRMonotone(t *testing.T) {
	tree := NewTreeRR(1, 2, 8)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dst := req(0, int64(rng.Intn(40)+1))
		var comps []Request
		for c := 1; c < 16; c++ {
			if rng.Intn(2) == 0 {
				comps = append(comps, req(c, int64(rng.Intn(40))))
			}
		}
		base := tree.Bound(dst, comps, 0)
		grown := append(append([]Request(nil), comps...), req(9, int64(rng.Intn(40)+1)))
		return tree.Bound(dst, grown, 0) >= base
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeRRName(t *testing.T) {
	if got := NewTreeRR(1, 2, 8).Name(); got != "tree-rr(L=1,2x8)" {
		t.Errorf("Name = %q", got)
	}
	if got := NewTreeRR(2).Name(); !strings.Contains(got, "flat") {
		t.Errorf("Name = %q", got)
	}
	if NewTreeRR(1, 2, 8).Additive() {
		t.Error("tree must not claim additivity")
	}
}

func TestTreeRRClamping(t *testing.T) {
	tree := NewTreeRR(0, 0, -3)
	if tree.WordLatency != 1 || tree.Levels[0] != 1 || tree.Levels[1] != 1 {
		t.Errorf("clamping failed: %+v", tree)
	}
	if got := tree.Bound(req(0, 5), []Request{req(1, 5)}, 0); got < 0 {
		t.Errorf("degenerate tree bound = %d", got)
	}
}
