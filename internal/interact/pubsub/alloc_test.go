//go:build !race

// Under the race detector sync.Pool drops entries at random, so exact
// allocation counts do not hold: this file is built without it only.

package pubsub

import "testing"

// A publish fanned out to four subscribers on TCP allocates what its messages
// own and nothing else: the publisher's Call, an envelope for each of six
// decodes — the broker's, four subscribers', the publisher's acknowledgement —
// and a payload for the five that carry one, less the envelope the broker
// recycles after fan-out: 11. Six decodes draw on that one Put; the
// acknowledgement, decoded as the broker lets go, tends to be the one that
// takes the recycled shell, and having no payload it cannot use the buffer
// that came with it, so the payload of the pair is still paid (10 when a
// subscriber gets there first). The topics rotate, so a reader that remembered only its last topic
// would pay a string a message on five connections.
func TestPublishFanoutAllocs(t *testing.T) {
	w := newFanoutWorld(t)
	for i := 0; i < 4*len(w.topics); i++ {
		w.publish(t)
	}
	const want = 11
	if allocs := testing.AllocsPerRun(500, func() { w.publish(t) }); allocs > want {
		t.Fatalf("a publish to %d subscribers allocates %.2f objects, want at most %d", len(w.events), allocs, want)
	}
}
