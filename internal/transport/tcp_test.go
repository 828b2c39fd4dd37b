package transport

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"ndsm/internal/wire"
)

// tcpPair returns the two ends of one loopback connection on a transport of
// its own.
func tcpPair(tb testing.TB) (client, server *tcpConn) {
	tb.Helper()
	tr := NewTCP(nil)
	tb.Cleanup(func() { _ = tr.Close() })
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	return dialPair(tb, tr, l)
}

// dialPair dials l over tr and returns both ends of the new connection.
func dialPair(tb testing.TB, tr *TCP, l Listener) (client, server *tcpConn) {
	tb.Helper()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			tb.Errorf("accept: %v", err)
		}
		accepted <- c
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	s := <-accepted
	if s == nil {
		tb.FailNow()
	}
	return c.(*tcpConn), s.(*tcpConn)
}

// onOneProcessor runs the rest of the test on a single P — where a sender's
// non-blocking write never overlaps another sender, so only the flush leader's
// yield can form a group.
func onOneProcessor(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// replyBurst has the server end receive `requests` frames and then send 16
// frames of replySize payload bytes from 16 goroutines made runnable
// together, and returns the server writer's counts once the client has them
// all.
func replyBurst(t *testing.T, requests, replySize int) (frames, writes, yields uint64) {
	t.Helper()
	onOneProcessor(t)
	client, server := tcpPair(t)
	for i := 0; i < requests; i++ {
		if err := client.Send(&wire.Message{ID: uint64(i + 1), Kind: wire.KindRequest, Payload: make([]byte, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < requests; i++ {
		recvWithTimeout(t, server)
	}

	const senders = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			m := &wire.Message{ID: uint64(1000 + i), Kind: wire.KindReply, Corr: uint64(i + 1), Payload: make([]byte, replySize)}
			if err := server.Send(m); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	close(start)
	seen := make(map[uint64]bool, senders)
	for i := 0; i < senders; i++ {
		seen[recvWithTimeout(t, client).ID] = true
	}
	wg.Wait()
	if len(seen) != senders {
		t.Fatalf("client got %d distinct frames, want %d", len(seen), senders)
	}
	return server.bw.Stats()
}

// Replies owed to a pipelining peer leave together: the first handler to
// send yields once, the rest queue behind it, one write carries them all.
func TestTCPOwedRepliesShareOneWrite(t *testing.T) {
	frames, writes, yields := replyBurst(t, 16, 64)
	if frames != 16 || writes > 2 || yields == 0 {
		t.Fatalf("16 owed replies: %d frames in %d writes after %d yields, want 16 frames in ≤ 2 writes", frames, writes, yields)
	}
}

// Replies past yieldBatchCap are written at once. Grouping 16 KiB replies
// under a 64 KiB cap was measured on rpc_large_tcp: capacity went from 65–75 k
// to 77–89 k req/s, but the live heap doubled and peak RSS rose 8–22 %, and
// with GOGC=400 on both sides the gain was gone. It came from the collector's pacing, not from
// saved write calls, so the cap stays at 4 KiB.
func TestTCPLargeRepliesNeverYield(t *testing.T) {
	frames, _, yields := replyBurst(t, 16, 16<<10)
	if frames != 16 || yields != 0 {
		t.Fatalf("16 KiB replies: %d frames, %d yields, want 16 and 0", frames, yields)
	}
}

// A connection that only sends (a pub/sub broker's side of a subscriber
// connection) owes nothing, whatever the number of senders.
func TestTCPSendOnlyConnNeverYields(t *testing.T) {
	frames, _, yields := replyBurst(t, 0, 64)
	if frames != 16 || yields != 0 {
		t.Fatalf("send-only connection: %d frames, %d yields, want 16 and 0", frames, yields)
	}
}

// With one request in flight neither side ever owes more than the frame it
// is sending: every frame is its own write and nobody yields — the round
// trip executes what it executed before the yield rule existed.
func TestTCPPingPongNeverYields(t *testing.T) {
	onOneProcessor(t)
	client, server := tcpPair(t)
	const rounds = 100
	for i := 0; i < rounds; i++ {
		if err := client.Send(&wire.Message{ID: uint64(i + 1), Kind: wire.KindRequest, Payload: make([]byte, 64)}); err != nil {
			t.Fatal(err)
		}
		m := recvWithTimeout(t, server)
		if err := server.Send(&wire.Message{ID: m.ID, Kind: wire.KindReply, Corr: m.ID, Payload: m.Payload}); err != nil {
			t.Fatal(err)
		}
		recvWithTimeout(t, client)
	}
	for name, c := range map[string]*tcpConn{"client": client, "server": server} {
		frames, writes, yields := c.bw.Stats()
		if frames != rounds || writes != rounds || yields != 0 {
			t.Errorf("%s: %d frames, %d writes, %d yields, want %d, %d, 0", name, frames, writes, yields, rounds, rounds)
		}
	}
}

// The transport holds a connection only while it is open: a server taking
// short-lived connections must not keep each one's buffers until it closes.
func TestTCPClosedConnsAreForgotten(t *testing.T) {
	tr := NewTCP(nil)
	defer tr.Close()
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c, s := dialPair(t, tr, l)
		_ = c.Close()
		_ = s.Close()
		_ = s.Close() // closing twice is harmless
	}
	tr.mu.Lock()
	live := len(tr.conns)
	tr.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d connections still held after 20 dial/close cycles", live)
	}
}

// A connection whose Dial or Accept was in flight when Close ran is wrapped
// after Close took its snapshot of the live set: wrap must close it then, or
// its Recv never returns.
func TestTCPWrapAfterCloseClosesConn(t *testing.T) {
	tr := NewTCP(nil)
	_ = tr.Close()
	mine, peer := net.Pipe()
	defer peer.Close()
	if c, err := tr.wrap(mine); !errors.Is(err, ErrClosed) || c != nil {
		t.Fatalf("wrap after Close = %v, %v; want nil, ErrClosed", c, err)
	}
	_ = peer.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer read = %v, want io.EOF: the wrapped end was left open", err)
	}
	tr.mu.Lock()
	live := len(tr.conns)
	tr.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d connections held by a closed transport", live)
	}
}

// BenchmarkTCPPingPong is one 64 B round trip with one request in flight over
// loopback. Run it with -cpu 1,2: at 2 it is the only guard on what the flush
// leader's yield rule costs an idle connection on several processors (an
// unconditional yield wakes a second P on every send).
func BenchmarkTCPPingPong(b *testing.B) {
	client, server := tcpPair(b)
	go func() {
		for {
			m, err := server.Recv()
			if err != nil {
				return
			}
			m.Kind, m.Corr = wire.KindReply, m.ID
			if err := server.Send(m); err != nil {
				return
			}
		}
	}()
	req := &wire.Message{ID: 1, Kind: wire.KindRequest, Src: "c", Dst: "s", Topic: "echo", Payload: make([]byte, 64)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(req); err != nil {
			b.Fatal(err)
		}
		if _, err := client.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}
