// Package shard is the multi-node half of the serving tier: a deterministic
// consistent-hash ring that maps graph fingerprints to shard replicas, and
// an HTTP router that fronts a fleet of miaserve shards speaking the
// existing wire+batch protocol.
//
// The placement goal is residency, not balance alone: a shard that has
// served a fingerprint holds its compiled engine.Image and the warm
// analyzer checkpoints for it, so repeat traffic for the same graph must
// keep landing on the same shard (and, for failover, on the same successor)
// for the single-node warm-path economics to survive scale-out. A
// consistent-hash ring gives exactly that: the mapping depends only on the
// member set and the fingerprint, adding or removing one shard remaps only
// the keys that shard owned, and every router (or shard-aware client)
// computing the ring over the same member list lands on the same shard
// without coordination.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
	"strconv"
)

// DefaultVnodes is the virtual-node count per member used when a Ring is
// built with vnodes <= 0. 64 points per member keeps the expected load
// imbalance of a small fleet within a few percent while the ring stays tiny
// (a 16-shard ring is 1024 points, one binary search per lookup).
const DefaultVnodes = 64

// Ring is an immutable consistent-hash ring over a set of member
// identifiers (for the router: shard base URLs). Construction is
// deterministic — same members, same vnodes, same ring — and lookups are
// goroutine-safe.
type Ring struct {
	members []string
	vnodes  int
	points  []point // sorted by hash
}

// point is one virtual node: a position on the 64-bit ring owned by a
// member.
type point struct {
	hash   uint64
	member int32
}

// hash64 maps a string onto the ring. SHA-256 (truncated to 64 bits) rather
// than a fast non-cryptographic hash: ring placement must be stable across
// processes, architectures, and releases — it is part of the serving
// protocol, like the graph fingerprints it routes, which use the same
// digest.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.LittleEndian.Uint64(sum[:8])
}

// NewRing builds a ring over members with the given virtual-node count per
// member (vnodes <= 0 means DefaultVnodes). Duplicate members are
// collapsed; order of the input slice does not affect placement. NewRing
// panics on an empty member set — a ring with no members cannot answer any
// lookup, so constructing one is a configuration bug, not a runtime
// condition.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	if len(uniq) == 0 {
		panic("shard: NewRing needs at least one member")
	}
	// Sort the member list so the member→index assignment (and therefore the
	// ring) is independent of configuration order.
	sort.Strings(uniq)
	r := &Ring{members: uniq, vnodes: vnodes}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash:   hash64(m + "#" + strconv.Itoa(v)),
				member: int32(mi),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare at 64 bits) break by member index so
		// the ring stays a deterministic function of the member set.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the ring's member set in canonical (sorted) order.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Order returns every member in the key's ring-walk order: the member
// owning the first point clockwise of hash(key), then each subsequent
// distinct member. The first element is the key's primary, the second its
// replication successor, and the tail is the deterministic failover
// sequence — a router that exhausts the list has tried the whole fleet.
func (r *Ring) Order(key string) []string {
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.members))
	seen := make([]bool, len(r.members))
	for i := 0; i < len(r.points) && len(out) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// OrderBounded is the bounded-load variant of Order: members accepted by
// the ok predicate (healthy, under the load bound) keep their ring order
// and come first; rejected members follow, also in ring order, as the
// last-resort tail. The full member list is always returned — bounded-load
// placement may *prefer* an underloaded shard, but a router that refuses to
// try an overloaded shard when every other one is dead has converted an
// overload signal into an outage.
func (r *Ring) OrderBounded(key string, ok func(member string) bool) []string {
	ord := r.Order(key)
	out := make([]string, 0, len(ord))
	var rest []string
	for _, m := range ord {
		if ok(m) {
			out = append(out, m)
		} else {
			rest = append(rest, m)
		}
	}
	return append(out, rest...)
}

// WithinBound reports whether a member carrying load is within the
// bounded-load criterion c·(total+1)/members (the "consistent hashing with
// bounded loads" cap): admitting one more request onto it keeps it below c
// times the fleet's mean load. c <= 1 is treated as the canonical 1.25.
func WithinBound(load, total, members int, c float64) bool {
	if members <= 0 {
		return false
	}
	if c <= 1 {
		c = 1.25
	}
	cap := math.Ceil(c * float64(total+1) / float64(members))
	return float64(load+1) <= cap
}
