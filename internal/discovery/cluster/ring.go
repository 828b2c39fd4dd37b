// Package cluster is the replicated, sharded registry organization: service
// descriptions are consistent-hash sharded across N registry nodes (virtual
// nodes smooth the key distribution), replicated at factor R by leaderless
// gossip anti-entropy (periodic digest exchange + delta sync over the
// existing endpoint layer, last-writer-wins on lease sequence), and read
// through a scatter-gather client resolver that any consumer can wrap in the
// discovery lease cache for local steady-state lookups.
//
// The organization "tolerates inconsistency": after a write, owners converge
// within one anti-entropy round rather than on a synchronous quorum, which
// is what keeps every registry operation available through the death of any
// R-1 members.
package cluster

import (
	"sort"
	"strconv"

	"ndsm/internal/svcdesc"
)

// DefaultVNodes is how many ring points each member contributes — enough to keep shard imbalance within a few percent at
// single-digit cluster sizes.
const DefaultVNodes = 64

// Ring is a consistent-hash ring over the cluster membership. It is
// immutable after construction; placement is a pure function of (members,
// key), so every client and every member computes identical owner
// sets with no coordination.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int // index into members
}

// NewRing builds the ring. Members are deduplicated and sorted so the ring
// is canonical regardless of argument order. Every member and every
// resolver builds it with DefaultVNodes points a member, so they agree on
// every owner set.
func NewRing(members []string) *Ring {
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, points: make([]ringPoint, 0, len(uniq)*DefaultVNodes)}
	for i, m := range uniq {
		for v := 0; v < DefaultVNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   svcdesc.KeyHash(m + "#" + strconv.Itoa(v)),
				member: i,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.member < b.member
	})
	return r
}

// Members returns the canonical (sorted, deduplicated) membership.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Owners returns the first n distinct members clockwise from the key's ring
// position — the key's preference list. n is clamped to the membership size.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.members) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := svcdesc.KeyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// Owns reports whether member is in the key's owner set at replication
// factor rf.
func (r *Ring) Owns(member, key string, rf int) bool {
	for _, m := range r.Owners(key, rf) {
		if m == member {
			return true
		}
	}
	return false
}
