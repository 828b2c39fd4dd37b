package endpoint

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"ndsm/internal/netsim"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// The server recycles a request once its reply is sent (see Handler). What
// that must not change: a reply that aliases the request arrives whole. What
// it does change: a handler that keeps a request is reading garbage, and the
// race build makes the garbage unmistakable.

// recycleTransports builds a listening and a dialling transport of each kind.
var recycleTransports = []struct {
	name  string
	setup func(t *testing.T) (listen transport.Transport, addr string, dial transport.Transport)
}{
	{"tcp", func(t *testing.T) (transport.Transport, string, transport.Transport) {
		tr := transport.NewTCP(nil)
		t.Cleanup(func() { _ = tr.Close() })
		return tr, "127.0.0.1:0", tr
	}},
	{"mem", func(t *testing.T) (transport.Transport, string, transport.Transport) {
		tr := transport.NewMem(transport.NewFabric())
		t.Cleanup(func() { _ = tr.Close() })
		return tr, "srv", tr
	}},
	{"sim", func(t *testing.T) (transport.Transport, string, transport.Transport) {
		net := netsim.New(netsim.Config{Range: 100, Unlimited: true})
		for _, id := range []netsim.NodeID{"lnode", "dnode"} {
			if err := net.AddNode(id, netsim.Position{}); err != nil {
				t.Fatal(err)
			}
		}
		lt, err := transport.NewSim(net, "lnode", nil)
		if err != nil {
			t.Fatal(err)
		}
		dt, err := transport.NewSim(net, "dnode", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = lt.Close(); _ = dt.Close(); net.Close() })
		return lt, "lnode", dt
	}},
}

// Handlers may answer with the request's own memory: the payload, a slice of
// it, the request itself. With a window of calls in flight and payloads from
// nothing to past what a recycled message keeps, every reply is what was sent.
func TestEchoAliasSurvivesRecycle(t *testing.T) {
	const window, calls = 32, 192
	sizes := []int{0, 1, 64, 4095, 16384, 70000}
	handlers := map[string]Handler{
		"payload": func(req *wire.Message) (*wire.Message, error) {
			return &wire.Message{Kind: wire.KindReply, Payload: req.Payload}, nil
		},
		"prefix": func(req *wire.Message) (*wire.Message, error) {
			return &wire.Message{Kind: wire.KindReply, Payload: req.Payload[:min(8, len(req.Payload))]}, nil
		},
		"request": func(req *wire.Message) (*wire.Message, error) {
			req.Kind = wire.KindReply
			return req, nil
		},
	}
	for _, tc := range recycleTransports {
		t.Run(tc.name, func(t *testing.T) {
			lt, addr, dt := tc.setup(t)
			l, err := lt.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			s := NewServer(l, ServerOptions{Name: "srv"})
			defer s.Close()
			for topic, h := range handlers {
				s.Handle(topic, h)
			}
			c, err := NewCaller(dt, s.Addr(), CallerOptions{Timeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for topic := range handlers {
				var wg sync.WaitGroup
				for w := 0; w < window; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := w; i < calls; i += window {
							sent := bytes.Repeat([]byte{byte(i), byte(i >> 8), 0x5A}, sizes[i%len(sizes)]/3+1)[:sizes[i%len(sizes)]]
							want := sent
							if topic == "prefix" {
								want = sent[:min(8, len(sent))]
							}
							reply, err := c.Do(&Call{Topic: topic, Payload: sent})
							if err != nil {
								t.Errorf("%s call %d (%d bytes): %v", topic, i, len(sent), err)
								return
							}
							if !bytes.Equal(reply.Payload, want) {
								t.Errorf("%s call %d: reply of %d bytes starting %x, sent %d starting %x",
									topic, i, len(reply.Payload), reply.Payload[:min(8, len(reply.Payload))], len(want), want[:min(8, len(want))])
								return
							}
						}
					}(w)
				}
				wg.Wait()
			}
		})
	}
}

// A handler that keeps a request's payload past its return is wrong, and in a
// race build it finds out: once the reply is out, what it kept reads 0xDB.
func TestRecycledRequestIsPoisoned(t *testing.T) {
	if !raceEnabled {
		t.Skip("wire.Recycle poisons what it pools only under the race detector")
	}
	var kept []byte
	s, c := newPair(t, ServerOptions{}, CallerOptions{Timeout: 10 * time.Second})
	s.Handle("keep", func(req *wire.Message) (*wire.Message, error) {
		kept = req.Payload // the bug: nothing of req outlives the call
		return nil, nil    // an ack without a payload, so no decode refills the buffer
	})
	sent := bytes.Repeat([]byte{0x11}, 1024)
	if _, err := c.Do(&Call{Topic: "keep", Payload: sent}); err != nil {
		t.Fatal(err)
	}
	// Close waits for the handler goroutine, which recycles after it replies.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(sent) {
		t.Fatalf("handler kept %d bytes of %d", len(kept), len(sent))
	}
	for i, b := range kept {
		if b != 0xDB {
			t.Fatalf("byte %d of the kept payload reads %#x after the reply, want the poison 0xdb: %s", i, b, fmt.Sprintf("%x…", kept[:16]))
		}
	}
}
