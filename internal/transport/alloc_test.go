//go:build !race

// Under the race detector sync.Pool drops entries at random, so exact
// allocation counts do not hold: this file is built without it only.

package transport

import (
	"testing"

	"ndsm/internal/wire"
)

// A mem hop of a 64-byte request allocates nothing: Send's clone comes from
// wire's pool, and the receiver's Recycle puts it back.
func TestMemHopZeroAlloc(t *testing.T) {
	client, server := memPair(t)
	req := &wire.Message{ID: 1, Kind: wire.KindRequest, Topic: "echo", Payload: make([]byte, 64)}
	hop := func() {
		if err := client.Send(req); err != nil {
			t.Fatal(err)
		}
		m, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		wire.Recycle(m)
	}
	for i := 0; i < 100; i++ {
		hop()
	}
	if n := testing.AllocsPerRun(1000, hop); n != 0 {
		t.Fatalf("mem hop: %.2f allocs, want 0", n)
	}
}
