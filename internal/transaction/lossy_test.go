package transaction

import (
	"fmt"
	"testing"
	"time"

	"ndsm/internal/netsim"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// TestReliableLinkOverLossyRadio is the cross-stack reliability test: the
// at-least-once Link rides the sim transport over a radio dropping 30% of
// packets, and every message still arrives exactly once — the §3.6 delivery
// guarantee built from an unreliable substrate.
func TestReliableLinkOverLossyRadio(t *testing.T) {
	net := netsim.New(netsim.Config{Range: 50, Unlimited: true, Seed: 99})
	net.SetLossRate(0.3)
	t.Cleanup(net.Close)
	for _, id := range []netsim.NodeID{"a", "b"} {
		if err := net.AddNode(id, netsim.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	ta, err := transport.NewSim(net, "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ta.Close() })
	tb, err := transport.NewSim(net, "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tb.Close() })

	lb, err := tb.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	connA, err := ta.Dial("b")
	if err != nil {
		t.Fatal(err)
	}

	// The accepting side only materializes when the first datagram survives
	// the loss; SendReliable's retransmissions make that happen.
	linkA := NewLink(lossyConnWrap{connA}, LinkConfig{RetryInterval: 5 * time.Millisecond, MaxRetries: 100})
	t.Cleanup(func() { _ = linkA.Close() })

	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := lb.Accept()
		if err == nil {
			accepted <- c
		}
	}()

	const messages = 30
	done := make(chan error, 1)
	go func() {
		for i := 0; i < messages; i++ {
			m := &wire.Message{Kind: wire.KindData, Src: "a", Payload: []byte(fmt.Sprintf("m%d", i))}
			if err := linkA.SendReliable(m); err != nil {
				done <- fmt.Errorf("send %d: %w", i, err)
				return
			}
		}
		done <- nil
	}()

	var linkB *Link
	select {
	case c := <-accepted:
		linkB = NewLink(c, LinkConfig{RetryInterval: 5 * time.Millisecond, MaxRetries: 100})
		t.Cleanup(func() { _ = linkB.Close() })
	case <-time.After(30 * time.Second):
		t.Fatal("first datagram never survived the lossy radio")
	}

	seen := make(map[string]bool)
	deadline := time.After(60 * time.Second)
	for len(seen) < messages {
		type res struct {
			m   *wire.Message
			err error
		}
		ch := make(chan res, 1)
		go func() {
			m, err := linkB.Recv()
			ch <- res{m, err}
		}()
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatalf("recv: %v", r.err)
			}
			key := string(r.m.Payload)
			if seen[key] {
				t.Fatalf("duplicate delivery of %s", key)
			}
			seen[key] = true
		case <-deadline:
			t.Fatalf("only %d/%d messages arrived", len(seen), messages)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if linkA.Retransmissions.Load() == 0 {
		t.Fatal("30% loss produced zero retransmissions — loss not exercised")
	}
}

// lossyConnWrap is a pass-through (the loss lives in the radio); it exists
// so the test reads clearly.
type lossyConnWrap struct{ transport.Conn }
