// What a client keeps of a round trip stays as it arrived. Clients hand the
// decoded shell of a reply or an event back for reuse (wire.Recycle) once its
// payload is taken, and they hand it back without the payload: a shell that
// went back with the bytes the application holds would have the next decode
// write another message over them. The race build makes that show at once,
// because Recycle overwrites what it pools with 0xDB.
package ndsm_test

import (
	"bytes"
	"testing"
	"time"

	"ndsm/internal/core"
	"ndsm/internal/discovery"
	"ndsm/internal/interact/pubsub"
	"ndsm/internal/qos"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transport"
)

// TestKeptPayloadsSurviveTraffic holds a thousand payloads from each of
// Binding.Request, AsyncReply.Wait and pub/sub events while the traffic that
// follows them reuses every shell the clients gave back, then checks every
// byte of all of them.
func TestKeptPayloadsSurviveTraffic(t *testing.T) {
	const kept, size = 1000, 96
	store := discovery.NewStore(nil, 0)
	tcp := func() transport.Transport {
		tr := transport.NewTCP(nil)
		t.Cleanup(func() { _ = tr.Close() })
		return tr
	}
	node := func() *core.Node {
		tr := tcp()
		probe, err := tr.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := probe.Addr()
		_ = probe.Close()
		n, err := core.NewNode(core.Config{Name: addr, Transport: tr, Registry: store})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	if err := node().Serve(&svcdesc.Description{Name: "kept/echo", Reliability: 0.9, PowerLevel: 1},
		func(p []byte) ([]byte, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	b, err := node().Bind(&qos.Spec{Query: svcdesc.Query{Name: "kept/echo"}}, core.BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })

	l, err := tcp().Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	broker := pubsub.NewBroker(l)
	t.Cleanup(func() { _ = broker.Close() })
	dial := func() *pubsub.Client {
		c, err := pubsub.Dial(tcp(), l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	pub, sub := dial(), dial()
	events, err := sub.Subscribe("kept/*")
	if err != nil {
		t.Fatal(err)
	}

	// message is what source s sends in step i: distinct in every byte run
	// a later message could have written over it.
	message := func(s, i int) []byte {
		return bytes.Repeat([]byte{byte(s), byte(i), byte(i >> 8), 0x5A}, size/4)
	}
	var held [3][kept][]byte
	for i := 0; i < kept; i++ {
		async := b.RequestAsync(message(1, i))
		out, err := b.Request(message(0, i))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		held[0][i] = out
		if held[1][i], err = async.Wait(); err != nil {
			t.Fatalf("async request %d: %v", i, err)
		}
		if err := pub.Publish("kept/event", message(2, i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		select {
		case ev := <-events:
			held[2][i] = ev.Payload
		case <-time.After(10 * time.Second):
			t.Fatalf("event %d never arrived", i)
		}
	}
	sources := [3]string{"Binding.Request", "AsyncReply.Wait", "pub/sub event"}
	for s := range held {
		for i, got := range held[s] {
			if want := message(s, i); !bytes.Equal(got, want) {
				t.Fatalf("%s %d reads %x… after later traffic, want %x…", sources[s], i, got[:min(8, len(got))], want[:8])
			}
		}
	}
}
