//go:build !race

// Under the race detector sync.Pool drops entries at random, so exact
// allocation counts do not hold: this file is built without it only.

package discovery

import (
	"testing"

	"ndsm/internal/svcdesc"
	"ndsm/internal/wire"
)

// One registration, pinned on each side. The client writes the description
// into a pooled buffer: nothing. The server decodes it into the description
// the store keeps — the document as one string, the Description, the
// attribute map's header and group — and keys the entry: five, with no copy
// between decoding and storing, and an acknowledgement the endpoint draws
// from its pool.
func TestRegistrationAllocs(t *testing.T) {
	d := &svcdesc.Description{
		Name: "decoy/1f0e3dad", Provider: "10.148.3.77:40213", InstanceID: "137", Version: "2.7",
		Attributes:  map[string]string{"zone": "5", "rate": "412"},
		Reliability: 0.8046457046246652, PowerLevel: 0.3184243932506309,
	}
	bp := descBufs.Get().(*[]byte)
	defer descBufs.Put(bp)
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := marshalInto(bp, d); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("Client.Register's marshal allocates %.1f times, want 0", avg)
	}

	payload, err := svcdesc.MarshalDescription(d)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(nil, 0)
	srv := &Server{backing: store, store: store}
	req := &wire.Message{Kind: wire.KindControl, Topic: TopicRegister, Payload: payload}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := srv.handleRegister(req); err != nil {
			t.Fatal(err)
		}
	}); avg > 5 {
		t.Errorf("the server's decode and keep allocate %.1f times, want at most 5", avg)
	}
	if held(store) != 1 {
		t.Fatalf("store holds %d entries, want 1", held(store))
	}
}
