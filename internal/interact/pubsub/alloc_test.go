//go:build !race

// Under the race detector sync.Pool drops entries at random, so exact
// allocation counts do not hold: this file is built without it only.

package pubsub

import "testing"

// A publish fanned out to four subscribers on TCP allocates what its messages
// own and nothing else: the publisher's Call and the acknowledgement's
// envelope, the broker's envelope and payload, and an envelope and a payload
// per subscriber — 12. The topics rotate, so a reader that remembered only
// its last topic would pay a string a message on five connections.
func TestPublishFanoutAllocs(t *testing.T) {
	w := newFanoutWorld(t)
	for i := 0; i < 4*len(w.topics); i++ {
		w.publish(t)
	}
	const want = 12
	if allocs := testing.AllocsPerRun(500, func() { w.publish(t) }); allocs > want {
		t.Fatalf("a publish to %d subscribers allocates %.2f objects, want at most %d", len(w.events), allocs, want)
	}
}
