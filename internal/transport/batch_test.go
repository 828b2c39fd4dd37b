package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ndsm/internal/netsim"
	"ndsm/internal/wire"
)

func newSimPair(t *testing.T) (*Sim, *Sim) {
	t.Helper()
	net := netsim.New(netsim.Config{Range: 100, Unlimited: true, InboxSize: 4096})
	for _, id := range []netsim.NodeID{"a", "b"} {
		if err := net.AddNode(id, netsim.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	ta, err := NewSim(net, "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewSim(net, "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = ta.Close()
		_ = tb.Close()
	})
	return ta, tb
}

// The sim transport has one datagram shape per message. Flag 3 once marked a
// coalesced datagram; one arriving from outside is counted as dropped,
// creates no connection, and the connection beside it keeps working. (The
// test keeps its name from when a truncated batch was the malformed case.)
func TestSimBatchTruncatedTailCounted(t *testing.T) {
	ta, tb := newSimPair(t)
	l, err := tb.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ta.Dial("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Message{ID: 1, Kind: wire.KindData}); err != nil {
		t.Fatal(err)
	}
	acc, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Recv(); err != nil {
		t.Fatal(err)
	}

	// Two flag-3 datagrams from the initiator: one on the established
	// connection, one on an ID b has never seen.
	sc := conn.(*simConn)
	body, err := wire.Binary{}.Encode(&wire.Message{ID: 9, Kind: wire.KindData})
	if err != nil {
		t.Fatal(err)
	}
	const flagBatch = 3
	known := append(sc.header(flagBatch), body...)
	stranger := append([]byte(nil), known...)
	stranger[8] ^= 0x40 // another connection ID
	for _, d := range [][]byte{known, stranger} {
		if err := ta.svc.Send("a", "b", d); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for tb.DroppedFrames() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("flag-3 datagrams counted as dropped: %d, want 2", tb.DroppedFrames())
		}
		time.Sleep(time.Millisecond)
	}
	tb.mu.Lock()
	conns, backlog := len(tb.conns), len(l.(*simListener).backlog)
	tb.mu.Unlock()
	if conns != 1 || backlog != 0 {
		t.Fatalf("flag-3 datagram created a connection: %d conns, %d waiting to be accepted", conns, backlog)
	}
	if err := conn.Send(&wire.Message{ID: 2, Kind: wire.KindData}); err != nil {
		t.Fatal(err)
	}
	if m, err := acc.Recv(); err != nil || m.ID != 2 {
		t.Fatalf("recv after flag-3 datagrams = %v, %v", m, err)
	}
}

// Race stress over the batched TCP path: concurrent senders on both sides of
// a real socket, every frame delivered intact. Run with -race.
func TestTCPBatchedConcurrentSendStress(t *testing.T) {
	conn, srv := tcpPair(t)

	const senders, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m := &wire.Message{
					ID:      uint64(g*per + i + 1),
					Kind:    wire.KindData,
					Topic:   fmt.Sprintf("g%d", g),
					Payload: []byte("payload"),
				}
				if err := conn.Send(m); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(g)
	}
	seen := make(map[uint64]bool, senders*per)
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for len(seen) < senders*per {
			m, err := srv.Recv()
			if err != nil {
				t.Errorf("recv after %d: %v", len(seen), err)
				return
			}
			if seen[m.ID] || m.ID == 0 || m.ID > senders*per {
				t.Errorf("bad or duplicate frame id %d", m.ID)
				return
			}
			seen[m.ID] = true
		}
	}()
	wg.Wait()
	select {
	case <-recvDone:
	case <-time.After(10 * time.Second):
		t.Fatalf("receiver stalled at %d/%d frames", len(seen), senders*per)
	}
}
