package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ndsm/internal/wire"
)

// memPair returns both ends of one mem connection: the dialer's and the
// listener's.
func memPair(t *testing.T) (client, server Conn) {
	t.Helper()
	tr := NewMem(NewFabric())
	t.Cleanup(func() { _ = tr.Close() })
	l, err := tr.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	if client, err = tr.Dial("svc"); err != nil {
		t.Fatal(err)
	}
	if server, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	return client, server
}

func memMsg(id uint64) *wire.Message {
	return &wire.Message{ID: id, Kind: wire.KindData, Payload: []byte("x")}
}

// closers names the two ways a conn ends: its own Close and its peer's.
var closers = []struct {
	name  string
	close func(self, peer Conn)
}{
	{"own close", func(self, _ Conn) { _ = self.Close() }},
	{"peer close", func(_, peer Conn) { _ = peer.Close() }},
}

// A Send after either side's Close fails every time, even while the queue has
// room: the closed check is not one case among others for select to pick.
func TestMemSendAfterCloseFails(t *testing.T) {
	for _, cl := range closers {
		t.Run(cl.name, func(t *testing.T) {
			client, server := memPair(t)
			cl.close(client, server)
			for i := 0; i < 1000; i++ {
				if err := client.Send(memMsg(uint64(i + 1))); !errors.Is(err, ErrClosed) {
					t.Fatalf("try %d: Send after close: err = %v, want ErrClosed", i, err)
				}
			}
		})
	}
}

// What was queued before a Close still arrives, in order, on the receiving
// side; only then does Recv report the close.
func TestMemQueuedMessagesSurviveClose(t *testing.T) {
	const queued = memConnBuffer / 2
	for _, cl := range closers {
		t.Run(cl.name, func(t *testing.T) {
			client, server := memPair(t)
			for i := 1; i <= queued; i++ {
				if err := client.Send(memMsg(uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			cl.close(server, client)
			for i := 1; i <= queued; i++ {
				m, err := server.Recv()
				if err != nil {
					t.Fatalf("Recv %d after close: %v", i, err)
				}
				if m.ID != uint64(i) {
					t.Fatalf("Recv %d after close: ID %d, out of order", i, m.ID)
				}
			}
			for i := 0; i < 3; i++ {
				if _, err := server.Recv(); !errors.Is(err, ErrClosed) {
					t.Fatalf("Recv of a drained, closed conn: err = %v, want ErrClosed", err)
				}
			}
		})
	}
}

// waitErr returns the error done delivers, failing the test if nothing comes
// within a generous bound.
func waitErr(t *testing.T, what string, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s not unblocked by Close", what)
		return nil
	}
}

// A Send blocked on a full queue ends when the other side closes.
func TestMemPeerCloseUnblocksSend(t *testing.T) {
	client, server := memPair(t)
	for i := 1; i <= memConnBuffer; i++ {
		if err := client.Send(memMsg(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- client.Send(memMsg(memConnBuffer + 1)) }()
	select {
	case err := <-done:
		t.Fatalf("Send on a full queue returned %v without waiting", err)
	case <-time.After(10 * time.Millisecond):
	}
	_ = server.Close()
	if err := waitErr(t, "Send on a full queue", done); !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked Send after peer close: err = %v, want ErrClosed", err)
	}
}

// Close racing busy senders and a receiver: nothing hangs, the receiver ends
// with ErrClosed, and what it got from each sender is in that sender's order.
// A message whose Send raced the Close may be lost, as on a network.
func TestMemCloseRacesSendAndRecv(t *testing.T) {
	const senders, perSender = 4, 2000
	for _, closeServer := range []bool{false, true} {
		client, server := memPair(t)
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 1; i <= perSender; i++ {
					if err := client.Send(&wire.Message{ID: uint64(i), Kind: wire.KindData, Priority: uint8(s)}); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("sender %d: %v", s, err)
						}
						return
					}
				}
			}(s)
		}
		recvd, flowing := make(chan error, 1), make(chan struct{})
		go func() {
			last := make([]uint64, senders)
			for n := 0; ; n++ {
				m, err := server.Recv()
				if err != nil {
					recvd <- err
					return
				}
				s := m.Priority
				if m.ID <= last[s] {
					recvd <- fmt.Errorf("sender %d: message %d after %d", s, m.ID, last[s])
					return
				}
				last[s] = m.ID
				if n == 0 {
					close(flowing)
				}
			}
		}()
		select {
		case <-flowing:
		case err := <-recvd:
			t.Fatalf("receiver before any message: %v", err)
		}
		if closeServer {
			_ = server.Close()
		} else {
			_ = client.Close()
		}
		if err := waitErr(t, "Recv racing Close", recvd); !errors.Is(err, ErrClosed) {
			t.Fatalf("receiver: %v, want ErrClosed", err)
		}
		wg.Wait()
	}
}
