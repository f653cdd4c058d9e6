package shard

import (
	"fmt"
	"reflect"
	"testing"
)

func testMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://shard-%d:8080", i)
	}
	return out
}

// TestRingDeterministic: the ring is a pure function of the member set —
// input order, duplicates, and repeated construction must not change any
// lookup.
func TestRingDeterministic(t *testing.T) {
	members := testMembers(5)
	shuffled := []string{members[3], members[0], members[4], members[0], members[2], members[1]}
	a := NewRing(members, 0)
	b := NewRing(shuffled, 0)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("fingerprint-%d", i)
		if got, want := a.Order(key), b.Order(key); !reflect.DeepEqual(got, want) {
			t.Fatalf("key %q: order differs across construction orders\n a: %v\n b: %v", key, got, want)
		}
	}
	if !reflect.DeepEqual(a.Members(), b.Members()) {
		t.Errorf("member sets differ: %v vs %v", a.Members(), b.Members())
	}
}

// TestRingOrderCoversAllMembersDistinctly: Order returns every member
// exactly once.
func TestRingOrderCoversAllMembersDistinctly(t *testing.T) {
	r := NewRing(testMembers(7), 16)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		ord := r.Order(key)
		if len(ord) != 7 {
			t.Fatalf("key %q: order has %d members, want 7", key, len(ord))
		}
		seen := map[string]bool{}
		for _, m := range ord {
			if seen[m] {
				t.Fatalf("key %q: member %s repeated in order %v", key, m, ord)
			}
			seen[m] = true
		}
	}
}

// TestRingBalance: with default vnodes, primary assignment over many keys
// should not starve or drown any member (loose bound: every member owns
// between ¼× and 4× the fair share).
func TestRingBalance(t *testing.T) {
	members := testMembers(4)
	r := NewRing(members, 0)
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.Order(fmt.Sprintf("graph-%d", i))[0]]++
	}
	fair := keys / len(members)
	for _, m := range members {
		if c := counts[m]; c < fair/4 || c > fair*4 {
			t.Errorf("member %s owns %d of %d keys (fair share %d): imbalance outside 4×", m, c, keys, fair)
		}
	}
}

// TestRingRemovalOnlyRemapsLostKeys: consistent hashing's defining
// property — dropping one member must not move keys between surviving
// members.
func TestRingRemovalOnlyRemapsLostKeys(t *testing.T) {
	members := testMembers(5)
	full := NewRing(members, 0)
	reduced := NewRing(members[:4], 0) // shard-4 removed
	moved := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("graph-%d", i)
		before := full.Order(key)[0]
		after := reduced.Order(key)[0]
		if before == members[4] {
			continue // lost member's keys must remap somewhere
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys moved between surviving members after removal, want 0", moved)
	}
}

// TestRingOrderBounded: accepted members keep ring order and precede
// rejected ones; the full fleet is always returned.
func TestRingOrderBounded(t *testing.T) {
	r := NewRing(testMembers(5), 0)
	key := "graph-under-test"
	ord := r.Order(key)
	overloaded := map[string]bool{ord[0]: true, ord[2]: true}
	bounded := r.OrderBounded(key, func(m string) bool { return !overloaded[m] })
	want := []string{ord[1], ord[3], ord[4], ord[0], ord[2]}
	if !reflect.DeepEqual(bounded, want) {
		t.Errorf("bounded order %v, want %v", bounded, want)
	}
	if all := r.OrderBounded(key, func(string) bool { return false }); !reflect.DeepEqual(all, ord) {
		t.Errorf("all-rejected bounded order %v, want plain order %v", all, ord)
	}
}

func TestWithinBound(t *testing.T) {
	cases := []struct {
		load, total, members int
		want                 bool
	}{
		{0, 0, 3, true},    // idle fleet admits anywhere
		{0, 30, 3, true},   // unloaded member of a busy fleet
		{12, 30, 3, true},  // cap = ceil(1.25·31/3) = 13; load+1 = 13 ≤ 13 admits
		{13, 30, 3, false}, // load+1 = 14 > 13 rejects
		{30, 30, 3, false},
		{1, 3, 0, false}, // no members: nothing is within bound
	}
	for _, tc := range cases {
		if got := WithinBound(tc.load, tc.total, tc.members, 0); got != tc.want {
			t.Errorf("WithinBound(%d,%d,%d) = %v, want %v", tc.load, tc.total, tc.members, got, tc.want)
		}
	}
	if !WithinBound(5, 30, 3, 2.0) { // looser factor: cap = ceil(2·31/3) = 21
		t.Errorf("WithinBound with c=2 rejected load 5 of 30 over 3 members")
	}
}
