package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndsm/internal/netsim"
	"ndsm/internal/wire"
)

// countingService wraps a DatagramService and counts substrate sends, so
// tests can observe the coalescing factor. A non-zero delay makes each
// datagram slow, forcing concurrent senders to queue behind the flusher.
type countingService struct {
	DatagramService
	sends atomic.Int64
	delay time.Duration
}

func (s *countingService) Send(from, to netsim.NodeID, data []byte) error {
	s.sends.Add(1)
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return s.DatagramService.Send(from, to, data)
}

func newSimBatchPair(t *testing.T) (*Sim, *Sim, *countingService) {
	t.Helper()
	net := netsim.New(netsim.Config{Range: 100, Unlimited: true, InboxSize: 4096})
	for _, id := range []netsim.NodeID{"a", "b"} {
		if err := net.AddNode(id, netsim.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	svc := &countingService{DatagramService: net}
	ta, err := NewSim(svc, "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewSim(svc, "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = ta.Close()
		_ = tb.Close()
	})
	return ta, tb, svc
}

// A batched sim connection delivers every message, in order, and packs many
// messages into far fewer datagrams than the per-message path would.
func TestSimBatchingCoalescesAndDelivers(t *testing.T) {
	ta, tb, svc := newSimBatchPair(t)
	ta.SetBatching(true)
	svc.delay = time.Millisecond // slow substrate → senders queue behind the flusher
	l, err := tb.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ta.Dial("b")
	if err != nil {
		t.Fatal(err)
	}

	const n = 200
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := conn.Send(&wire.Message{ID: uint64(i), Kind: wire.KindData, Topic: "t"}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	acc, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool, n)
	for len(seen) < n {
		m, err := acc.Recv()
		if err != nil {
			t.Fatalf("recv after %d messages: %v", len(seen), err)
		}
		if seen[m.ID] {
			t.Fatalf("duplicate message %d", m.ID)
		}
		seen[m.ID] = true
	}
	if got := svc.sends.Load(); got >= n {
		t.Fatalf("no coalescing: %d datagrams for %d messages", got, n)
	}
	if dropped := tb.DroppedFrames(); dropped != 0 {
		t.Fatalf("%d frames dropped on lossless link", dropped)
	}
}

// Batched datagrams are understood even when the receiver never opted in:
// batching is a sender-side choice.
func TestSimBatchDecodeAlwaysOn(t *testing.T) {
	ta, tb, _ := newSimBatchPair(t)
	ta.SetBatching(true) // only the sender batches
	l, err := tb.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ta.Dial("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Message{ID: 7, Kind: wire.KindData}); err != nil {
		t.Fatal(err)
	}
	acc, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	m, err := acc.Recv()
	if err != nil || m.ID != 7 {
		t.Fatalf("recv = %v, %v", m, err)
	}
}

// A malformed batch datagram (truncated sub-frame length) is dropped and
// counted, and the connection keeps working.
func TestSimBatchTruncatedTailCounted(t *testing.T) {
	ta, tb, _ := newSimBatchPair(t)
	l, err := tb.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ta.Dial("b")
	if err != nil {
		t.Fatal(err)
	}
	// Establish the accepting side with a good message first.
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

	// Hand-craft a batch datagram whose sub-frame length overruns the body.
	sc := conn.(*simConn)
	bad := sc.appendHeader(nil, simFlagBatch)
	bad = append(bad, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3)
	if err := ta.svc.Send("a", "b", bad); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for tb.DroppedFrames() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("truncated batch never counted as dropped")
		}
		time.Sleep(time.Millisecond)
	}
	// The connection survives.
	if err := conn.Send(&wire.Message{ID: 2, Kind: wire.KindData}); err != nil {
		t.Fatal(err)
	}
	if m, err := acc.Recv(); err != nil || m.ID != 2 {
		t.Fatalf("recv after bad batch = %v, %v", m, err)
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
