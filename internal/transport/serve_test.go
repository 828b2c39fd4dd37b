package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"ndsm/internal/wire"
)

// forServed runs a test of Served on mem and tcp. spare is an address the
// test may listen on besides addr.
func forServed(t *testing.T, run func(t *testing.T, lt Transport, addr string, dt Transport, spare string)) {
	for _, h := range harnesses()[:2] {
		t.Run(h.name, func(t *testing.T) {
			lt, addr, dt := h.setup(t)
			spare := "spare"
			if h.name == "tcp" {
				spare = "127.0.0.1:0"
			}
			run(t, lt, addr, dt, spare)
		})
	}
}

// connPair connects dt to a listener of its own on lt at addr, closed before
// it returns, and returns both ends of the connection.
func connPair(t *testing.T, lt Transport, addr string, dt Transport) (dialed, accepted Conn) {
	t.Helper()
	l, err := lt.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dialed, err = dt.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if accepted, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dialed.Close(); _ = accepted.Close() })
	return dialed, accepted
}

// expectClosed fails the test unless c's Recv reports the connection gone.
func expectClosed(t *testing.T, c Conn) {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Recv returned a message on a connection that should be closed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("connection still open")
	}
}

// closeWithin fails the test unless s.Close returns within ten seconds.
func closeWithin(t *testing.T, s *Served) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
}

func ping(t *testing.T, c Conn) {
	t.Helper()
	if err := c.Send(&wire.Message{ID: 1, Kind: wire.KindRequest, Topic: "ping"}); err != nil {
		t.Fatal(err)
	}
}

func TestServedCloseIsIdempotentAndWaits(t *testing.T) {
	forServed(t, func(t *testing.T, lt Transport, addr string, dt Transport, _ string) {
		l, err := lt.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		var s Served
		var running atomic.Int32
		received := make(chan struct{}, 1)
		s.Serve(l, func(c Conn) {
			running.Add(1)
			defer running.Add(-1)
			for {
				if _, err := c.Recv(); err != nil {
					break
				}
				received <- struct{}{}
			}
			time.Sleep(10 * time.Millisecond) // still running when Close has closed c
		})
		var parked atomic.Bool
		s.Go(func() {
			<-s.Done()
			time.Sleep(10 * time.Millisecond)
			parked.Store(true)
		})
		c, err := dt.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ping(t, c)
		<-received
		for i := 0; i < 2; i++ {
			closeWithin(t, &s)
			if n := running.Load(); n != 0 {
				t.Fatalf("Close %d returned with %d serve functions running", i+1, n)
			}
			if !parked.Load() {
				t.Fatalf("Close %d returned before a goroutine started through Go ended", i+1)
			}
		}
		expectClosed(t, c)
	})
}

// gatedListener reports each accepted connection on accepted, then holds it
// until gate closes.
type gatedListener struct {
	Listener
	accepted, gate chan struct{}
}

func (l gatedListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	l.accepted <- struct{}{}
	<-l.gate
	return c, err
}

func TestServedClosesConnAcceptedAfterClose(t *testing.T) {
	forServed(t, func(t *testing.T, lt Transport, addr string, dt Transport, _ string) {
		inner, err := lt.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		l := gatedListener{Listener: inner, accepted: make(chan struct{}, 1), gate: make(chan struct{})}
		var s Served
		var served atomic.Bool
		s.Serve(l, func(Conn) { served.Store(true) })
		c, err := dt.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		<-l.accepted
		closed := make(chan struct{})
		go func() {
			s.Close()
			close(closed)
		}()
		<-s.Done()
		close(l.gate) // the accept loop gets c's server end only now
		<-closed
		if served.Load() {
			t.Fatal("a connection accepted after Close began was served")
		}
		expectClosed(t, c)
	})
}

func TestServedGoAfterCloseClosesConns(t *testing.T) {
	forServed(t, func(t *testing.T, lt Transport, addr string, dt Transport, spare string) {
		l, err := lt.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		var s Served
		s.Serve(l, func(Conn) {})
		s.Close()
		dialed, accepted := connPair(t, lt, spare, dt)
		if s.Go(func() { t.Error("Go ran f after Close") }, accepted) {
			t.Fatal("Go after Close reported true")
		}
		expectClosed(t, dialed)
	})
}

func TestServedClosesConnWhenServeReturns(t *testing.T) {
	forServed(t, func(t *testing.T, lt Transport, addr string, dt Transport, _ string) {
		l, err := lt.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		var s Served
		defer s.Close()
		s.Serve(l, func(c Conn) { _, _ = c.Recv() })
		c, err := dt.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ping(t, c)
		expectClosed(t, c)
	})
}

func TestServedCloseClosesConnsHandedToGo(t *testing.T) {
	forServed(t, func(t *testing.T, lt Transport, addr string, dt Transport, spare string) {
		l, err := lt.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		var s Served
		s.Serve(l, func(Conn) {})
		dialed, accepted := connPair(t, lt, spare, dt)
		if !s.Go(func() {
			for {
				if _, err := accepted.Recv(); err != nil {
					return
				}
			}
		}, accepted) {
			t.Fatal("Go before Close reported false")
		}
		closeWithin(t, &s)
		expectClosed(t, dialed)
	})
}
