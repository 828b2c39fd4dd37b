//go:build !race

// Under the race detector sync.Pool drops entries at random, so exact
// allocation counts do not hold: this file is built without it only.

package pubsub

import "testing"

// A publish fanned out to four subscribers on TCP allocates the payloads the
// subscribers keep: 4. The publisher's Call stays on its stack; the broker
// recycles the event it received, and the publisher's client its
// acknowledgement and each subscriber's client its event's shell, without the
// payload its subscriber holds. Six decodes draw on those six shells. The
// broker's comes back with its buffer, and so does the acknowledgement's: its
// payload is empty, so the buffer it drew waits beside it for Recycle. The
// topics rotate, so a reader that remembered only its last topic would pay a
// string a message on five connections.
func TestPublishFanoutAllocs(t *testing.T) {
	w := newFanoutWorld(t)
	for i := 0; i < 4*len(w.topics); i++ {
		w.publish(t)
	}
	const want = 4
	if allocs := testing.AllocsPerRun(500, func() { w.publish(t) }); allocs > want {
		t.Fatalf("a publish to %d subscribers allocates %.2f objects, want at most %d", len(w.events), allocs, want)
	}
}
