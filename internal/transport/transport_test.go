package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ndsm/internal/netsim"
	"ndsm/internal/obs"
	"ndsm/internal/wire"
)

// harness abstracts transport construction so one conformance suite runs
// against every implementation — the concrete expression of §3.2's network
// independence.
type harness struct {
	name string
	// setup returns a transport for the listener side, a listen address, and
	// a dialer-side transport (may be the same object).
	setup func(t *testing.T) (lt Transport, addr string, dt Transport)
}

func harnesses() []harness {
	return []harness{
		{
			name: "mem",
			setup: func(t *testing.T) (Transport, string, Transport) {
				fabric := NewFabric()
				lt := NewMem(fabric)
				dt := NewMem(fabric)
				t.Cleanup(func() { _ = lt.Close(); _ = dt.Close() })
				return lt, "svc-addr", dt
			},
		},
		{
			name: "tcp",
			setup: func(t *testing.T) (Transport, string, Transport) {
				lt := NewTCP(nil)
				dt := NewTCP(wire.JSON{}) // mixed codecs must interoperate
				t.Cleanup(func() { _ = lt.Close(); _ = dt.Close() })
				return lt, "127.0.0.1:0", dt
			},
		},
		{
			name: "sim",
			setup: func(t *testing.T) (Transport, string, Transport) {
				net := netsim.New(netsim.Config{Range: 100, Unlimited: true})
				if err := net.AddNode("lnode", netsim.Position{X: 0, Y: 0}); err != nil {
					t.Fatal(err)
				}
				if err := net.AddNode("dnode", netsim.Position{X: 10, Y: 0}); err != nil {
					t.Fatal(err)
				}
				lt, err := NewSim(net, "lnode", nil)
				if err != nil {
					t.Fatal(err)
				}
				dt, err := NewSim(net, "dnode", nil)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = lt.Close(); _ = dt.Close(); net.Close() })
				return lt, "lnode", dt
			},
		},
	}
}

// startEcho runs a listener that replies to every request with a reply
// message, until the listener closes.
func startEcho(t *testing.T, l Listener) {
	t.Helper()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					m, err := conn.Recv()
					if err != nil {
						return
					}
					reply := &wire.Message{
						ID:      m.ID + 1000,
						Kind:    wire.KindReply,
						Corr:    m.ID,
						Payload: m.Payload,
					}
					if err := conn.Send(reply); err != nil {
						return
					}
				}
			}()
		}
	}()
}

func recvWithTimeout(t *testing.T, c Conn) *wire.Message {
	t.Helper()
	type result struct {
		m   *wire.Message
		err error
	}
	ch := make(chan result, 1)
	go func() {
		m, err := c.Recv()
		ch <- result{m, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("Recv: %v", r.err)
		}
		return r.m
	case <-time.After(10 * time.Second):
		t.Fatal("Recv timed out")
		return nil
	}
}

func TestConformanceRequestReply(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			lt, addr, dt := h.setup(t)
			l, err := lt.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			startEcho(t, l)

			conn, err := dt.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			req := &wire.Message{ID: 1, Kind: wire.KindRequest, Payload: []byte("ping")}
			if err := conn.Send(req); err != nil {
				t.Fatal(err)
			}
			reply := recvWithTimeout(t, conn)
			if reply.Kind != wire.KindReply || reply.Corr != 1 || string(reply.Payload) != "ping" {
				t.Fatalf("bad reply: %+v", reply)
			}
		})
	}
}

func TestConformanceOrdering(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			lt, addr, dt := h.setup(t)
			l, err := lt.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			startEcho(t, l)
			conn, err := dt.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			const n = 20
			for i := 1; i <= n; i++ {
				m := &wire.Message{ID: uint64(i), Kind: wire.KindRequest, Payload: []byte(fmt.Sprintf("m%d", i))}
				if err := conn.Send(m); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i <= n; i++ {
				reply := recvWithTimeout(t, conn)
				if reply.Corr != uint64(i) {
					t.Fatalf("reply %d out of order: corr=%d", i, reply.Corr)
				}
			}
		})
	}
}

func TestConformanceMultipleConns(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			lt, addr, dt := h.setup(t)
			l, err := lt.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			startEcho(t, l)

			const conns = 5
			var wg sync.WaitGroup
			errs := make(chan error, conns)
			for i := 0; i < conns; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					conn, err := dt.Dial(l.Addr())
					if err != nil {
						errs <- err
						return
					}
					defer conn.Close()
					m := &wire.Message{ID: uint64(i + 1), Kind: wire.KindRequest, Payload: []byte{byte(i)}}
					if err := conn.Send(m); err != nil {
						errs <- err
						return
					}
					reply, err := conn.Recv()
					if err != nil {
						errs <- err
						return
					}
					if reply.Corr != uint64(i+1) || reply.Payload[0] != byte(i) {
						errs <- fmt.Errorf("conn %d got wrong reply: %+v", i, reply)
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// A Recv parked on an empty connection ends with ErrClosed when either side
// closes: its own side at once, the peer's once the close reaches it.
func TestConformanceCloseUnblocksRecv(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			for _, peer := range []bool{false, true} {
				name := "own close"
				if peer {
					name = "peer close"
				}
				t.Run(name, func(t *testing.T) {
					lt, addr, dt := h.setup(t)
					l, err := lt.Listen(addr)
					if err != nil {
						t.Fatal(err)
					}
					conn, err := dt.Dial(l.Addr())
					if err != nil {
						t.Fatal(err)
					}
					// sim makes the accepting side on the first frame.
					if err := conn.Send(&wire.Message{ID: 1, Kind: wire.KindData}); err != nil {
						t.Fatal(err)
					}
					server, err := l.Accept()
					if err != nil {
						t.Fatal(err)
					}
					recvWithTimeout(t, server)

					done := make(chan error, 1)
					go func() {
						_, err := conn.Recv()
						done <- err
					}()
					time.Sleep(10 * time.Millisecond)
					closer := conn
					if peer {
						closer = server
					}
					if err := closer.Close(); err != nil {
						t.Fatal(err)
					}
					select {
					case err := <-done:
						if !errors.Is(err, ErrClosed) {
							t.Fatalf("Recv after close: err = %v, want ErrClosed", err)
						}
					case <-time.After(10 * time.Second):
						t.Fatal("Recv not unblocked by Close")
					}
				})
			}
		})
	}
}

func TestConformanceListenerClose(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			lt, addr, _ := h.setup(t)
			l, err := lt.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := l.Accept()
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("Accept after close: err = %v, want ErrClosed", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Accept not unblocked by Close")
			}
			// Address is reusable after close.
			l2, err := lt.Listen(addr)
			if err != nil {
				t.Fatalf("re-listen: %v", err)
			}
			_ = l2.Close()
		})
	}
}

func TestConformanceTransportClose(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			lt, addr, dt := h.setup(t)
			l, err := lt.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			startEcho(t, l)
			if _, err := dt.Dial(l.Addr()); err != nil {
				t.Fatal(err)
			}
			if err := dt.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := dt.Dial(l.Addr()); !errors.Is(err, ErrClosed) {
				t.Fatalf("Dial after transport close: err = %v, want ErrClosed", err)
			}
			if _, err := dt.Listen(addr + "x"); !errors.Is(err, ErrClosed) {
				t.Fatalf("Listen after transport close: err = %v, want ErrClosed", err)
			}
			_ = dt.Close() // idempotent
		})
	}
}

func TestConformanceInvalidMessageRejected(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			lt, addr, dt := h.setup(t)
			l, err := lt.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			startEcho(t, l)
			conn, err := dt.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.Send(&wire.Message{}); err == nil {
				t.Fatal("invalid message accepted")
			}
		})
	}
}

func TestMemDialUnknownAddr(t *testing.T) {
	tr := NewMem(NewFabric())
	defer tr.Close()
	if _, err := tr.Dial("nowhere"); !errors.Is(err, ErrConnectRefused) {
		t.Fatalf("err = %v, want ErrConnectRefused", err)
	}
}

func TestMemAddrInUse(t *testing.T) {
	tr := NewMem(NewFabric())
	defer tr.Close()
	if _, err := tr.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("a"); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("err = %v, want ErrAddrInUse", err)
	}
}

func TestMemFabricIsolation(t *testing.T) {
	t1 := NewMem(NewFabric())
	t2 := NewMem(NewFabric())
	defer t1.Close()
	defer t2.Close()
	if _, err := t1.Listen("shared"); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Dial("shared"); !errors.Is(err, ErrConnectRefused) {
		t.Fatalf("cross-fabric dial: err = %v, want ErrConnectRefused", err)
	}
}

func TestMemSendClone(t *testing.T) {
	fabric := NewFabric()
	tr := NewMem(fabric)
	defer tr.Close()
	l, err := tr.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tr.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	m := &wire.Message{ID: 1, Kind: wire.KindData, Payload: []byte("orig")}
	if err := conn.Send(m); err != nil {
		t.Fatal(err)
	}
	m.Payload[0] = 'X' // mutate after send
	got := recvWithTimeout(t, server)
	if string(got.Payload) != "orig" {
		t.Fatalf("receiver saw sender's mutation: %q", got.Payload)
	}
}

func TestTCPDialRefused(t *testing.T) {
	tr := NewTCP(nil)
	defer tr.Close()
	if _, err := tr.Dial("127.0.0.1:1"); !errors.Is(err, ErrConnectRefused) {
		t.Fatalf("err = %v, want ErrConnectRefused", err)
	}
}

func TestTCPAddrReporting(t *testing.T) {
	tr := NewTCP(nil)
	defer tr.Close()
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if l.Addr() == "127.0.0.1:0" {
		t.Fatalf("listener did not report bound port: %s", l.Addr())
	}
	conn, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.RemoteAddr() != l.Addr() {
		t.Fatalf("RemoteAddr = %s, want %s", conn.RemoteAddr(), l.Addr())
	}
}

func TestSimListenWrongAddr(t *testing.T) {
	net := netsim.New(netsim.Config{Range: 100, Unlimited: true})
	defer net.Close()
	if err := net.AddNode("n1", netsim.Position{}); err != nil {
		t.Fatal(err)
	}
	tr, err := NewSim(net, "n1", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Listen("other"); err == nil {
		t.Fatal("listen on foreign address accepted")
	}
}

func TestSimUnknownNode(t *testing.T) {
	net := netsim.New(netsim.Config{Range: 100})
	defer net.Close()
	if _, err := NewSim(net, "ghost", nil); err == nil {
		t.Fatal("NewSim for unknown node accepted")
	}
}

func TestSimSendOutOfRangeSurfacesError(t *testing.T) {
	net := netsim.New(netsim.Config{Range: 10, Unlimited: true})
	defer net.Close()
	for id, pos := range map[netsim.NodeID]netsim.Position{"a": {}, "b": {X: 500}} {
		if err := net.AddNode(id, pos); err != nil {
			t.Fatal(err)
		}
	}
	ta, err := NewSim(net, "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	conn, err := ta.Dial("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Message{ID: 1, Kind: wire.KindData}); !errors.Is(err, netsim.ErrNotNeighbor) {
		t.Fatalf("err = %v, want ErrNotNeighbor", err)
	}
}

func TestSimConnIDCollision(t *testing.T) {
	// Both nodes dial each other; each side allocates conn ID 1. The
	// initiator flag must keep the four logical endpoints distinct.
	net := netsim.New(netsim.Config{Range: 100, Unlimited: true})
	defer net.Close()
	for _, id := range []netsim.NodeID{"a", "b"} {
		if err := net.AddNode(id, netsim.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	ta, err := NewSim(net, "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewSim(net, "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	la, err := ta.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := tb.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	startEcho(t, la)
	startEcho(t, lb)

	ab, err := ta.Dial("b")
	if err != nil {
		t.Fatal(err)
	}
	ba, err := tb.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Send(&wire.Message{ID: 10, Kind: wire.KindRequest, Payload: []byte("from-a")}); err != nil {
		t.Fatal(err)
	}
	if err := ba.Send(&wire.Message{ID: 20, Kind: wire.KindRequest, Payload: []byte("from-b")}); err != nil {
		t.Fatal(err)
	}
	ra := recvWithTimeout(t, ab)
	rb := recvWithTimeout(t, ba)
	if ra.Corr != 10 || string(ra.Payload) != "from-a" {
		t.Fatalf("a's reply wrong: %+v", ra)
	}
	if rb.Corr != 20 || string(rb.Payload) != "from-b" {
		t.Fatalf("b's reply wrong: %+v", rb)
	}
}

func TestSimDroppedFrameAccounting(t *testing.T) {
	net := netsim.New(netsim.Config{Range: 100, Unlimited: true})
	defer net.Close()
	for _, id := range []netsim.NodeID{"a", "b"} {
		if err := net.AddNode(id, netsim.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	tb, err := NewSim(net, "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	// Raw garbage datagram straight onto the substrate.
	if err := net.Send("a", "b", []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tb.DroppedFrames() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("garbage frame never counted as dropped")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSimDataToNonListeningNodeDropped(t *testing.T) {
	net := netsim.New(netsim.Config{Range: 100, Unlimited: true})
	defer net.Close()
	for _, id := range []netsim.NodeID{"a", "b"} {
		if err := net.AddNode(id, netsim.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	ta, err := NewSim(net, "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewSim(net, "b", nil) // not listening
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	conn, err := ta.Dial("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Message{ID: 1, Kind: wire.KindData}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tb.DroppedFrames() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("data to non-listening node not counted dropped")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestInstrumentCountsTraffic(t *testing.T) {
	reg := obs.NewRegistry()
	tr := Instrument(NewMem(NewFabric()), reg)
	l, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			_ = conn.Send(&wire.Message{Kind: wire.KindReply, Corr: m.ID, Payload: m.Payload})
		}
	}()
	conn, err := tr.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	acceptDeadline := time.Now().Add(2 * time.Second)
	for reg.Gauge("transport.mem.open_conns").Value() != 2 {
		if time.Now().After(acceptDeadline) {
			t.Fatalf("open_conns = %v, want 2 (dialer + acceptor)", reg.Gauge("transport.mem.open_conns").Value())
		}
		time.Sleep(time.Millisecond)
	}
	payload := []byte("12345")
	if err := conn.Send(&wire.Message{ID: 1, Kind: wire.KindRequest, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	// Both halves of the exchange ran through instrumented conns: the
	// request (client send + server recv) and the reply (server send +
	// client recv) each count once on each side.
	if snap.Counters["transport.mem.sent_msgs"] != 2 || snap.Counters["transport.mem.recv_msgs"] != 2 {
		t.Fatalf("msg counters = %v", snap.Counters)
	}
	if snap.Counters["transport.mem.sent_bytes"] != 10 || snap.Counters["transport.mem.recv_bytes"] != 10 {
		t.Fatalf("byte counters = %v", snap.Counters)
	}
	_ = conn.Close()
	_ = conn.Close() // double close must not double-decrement
	deadline := time.Now().Add(2 * time.Second)
	for reg.Gauge("transport.mem.open_conns").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("open_conns = %v after close, want 0", reg.Gauge("transport.mem.open_conns").Value())
		}
		time.Sleep(time.Millisecond)
	}
}
