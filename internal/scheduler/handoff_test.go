package scheduler

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ndsm/internal/core"
	"ndsm/internal/discovery"
	"ndsm/internal/qos"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transport"
)

// handoffWorld is a consumer node and the suppliers it binds to, on one mem
// fabric and one registry. Every supplier answers with its own name.
type handoffWorld struct {
	t        *testing.T
	fabric   *transport.Fabric
	registry *discovery.Store
	nodes    map[string]*core.Node
	consumer *core.Node
}

func newHandoffWorld(t *testing.T) *handoffWorld {
	w := &handoffWorld{
		t:        t,
		fabric:   transport.NewFabric(),
		registry: discovery.NewStore(nil, 0),
		nodes:    make(map[string]*core.Node),
	}
	w.consumer = w.node("consumer")
	return w
}

// node returns the node called name, starting it on first use.
func (w *handoffWorld) node(name string) *core.Node {
	w.t.Helper()
	if n, ok := w.nodes[name]; ok {
		return n
	}
	n, err := core.NewNode(core.Config{Name: name, Transport: transport.NewMem(w.fabric), Registry: w.registry})
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { _ = n.Close() })
	w.nodes[name] = n
	return n
}

// serve hosts d on the node called provider.
func (w *handoffWorld) serve(provider string, d svcdesc.Description) {
	w.t.Helper()
	if err := w.node(provider).Serve(&d, func([]byte) ([]byte, error) { return []byte(provider), nil }); err != nil {
		w.t.Fatal(err)
	}
}

// bind binds the consumer under q.
func (w *handoffWorld) bind(q svcdesc.Query) *core.Binding {
	w.t.Helper()
	b, err := w.consumer.Bind(&qos.Spec{Query: q}, core.BindOptions{})
	if err != nil {
		w.t.Fatal(err)
	}
	return b
}

// answeredBy fails unless b's next request is answered by peer.
func (w *handoffWorld) answeredBy(b *core.Binding, peer string) {
	w.t.Helper()
	out, err := b.Request(nil)
	if err != nil || string(out) != peer {
		w.t.Fatalf("request answered by %q, %v; want %q", out, err, peer)
	}
}

func desc(name string, rel, power float64) svcdesc.Description {
	return svcdesc.Description{Name: name, Reliability: rel, PowerLevel: power}
}

func TestHandoffMovesTransactions(t *testing.T) {
	w := newHandoffWorld(t)
	// The departing supplier is the better one and stays registered: the
	// hand-off must not choose it.
	w.serve("dying", desc("sensor/bp", 0.99, 1))
	w.serve("backup", desc("sensor/bp", 0.9, 1))
	b := w.bind(svcdesc.Query{Name: "sensor/bp"})
	if b.Peer() != "dying" {
		t.Fatalf("bound to %s, want dying", b.Peer())
	}
	if moved, aborted := w.consumer.HandoffPeer("dying"); moved != 1 || aborted != 0 {
		t.Fatalf("hand-off moved %d, aborted %d; want 1, 0", moved, aborted)
	}
	if b.Peer() != "backup" || b.Rebinds.Load() != 1 {
		t.Fatalf("after hand-off: peer %s, %d rebinds", b.Peer(), b.Rebinds.Load())
	}
	w.answeredBy(b, "backup")
}

func TestHandoffAbortsWhenNoReplacement(t *testing.T) {
	w := newHandoffWorld(t)
	w.serve("dying", desc("sensor/unique", 0.9, 1))
	b := w.bind(svcdesc.Query{Name: "sensor/unique"})
	if moved, aborted := w.consumer.HandoffPeer("dying"); moved != 0 || aborted != 1 {
		t.Fatalf("hand-off moved %d, aborted %d; want 0, 1", moved, aborted)
	}
	// The hand-off aborted, not the binding: it stays on its supplier.
	if b.Peer() != "dying" || b.Rebinds.Load() != 0 {
		t.Fatalf("after aborted hand-off: peer %s, %d rebinds", b.Peer(), b.Rebinds.Load())
	}
	w.answeredBy(b, "dying")
}

func TestHandoffUsesQoSSpec(t *testing.T) {
	w := newHandoffWorld(t)
	w.serve("old", desc("svc", 0.95, 1))
	b := w.bind(svcdesc.Query{Name: "svc", MinReliability: 0.9})
	// Unfloored, weak scores higher (0.80 against 0.65 by the default
	// weights); the binding's own reliability floor excludes it.
	w.serve("weak", desc("svc", 0.85, 1))
	w.serve("strong", desc("svc", 0.95, 0.2))
	if moved, _ := w.consumer.HandoffPeer("old"); moved != 1 {
		t.Fatalf("moved %d, want 1", moved)
	}
	if b.Peer() != "strong" {
		t.Fatalf("rebound to %s, want strong", b.Peer())
	}
	w.answeredBy(b, "strong")
}

func TestHandoffMultipleTransactions(t *testing.T) {
	w := newHandoffWorld(t)
	w.serve("dying", desc("a", 0.9, 1))
	w.serve("dying", desc("b", 0.9, 1)) // topic b gets no backup
	onA := w.bind(svcdesc.Query{Name: "a"})
	onB := w.bind(svcdesc.Query{Name: "b"})
	w.serve("other-peer", desc("a", 0.99, 1))
	unrelated := w.bind(svcdesc.Query{Name: "a"})
	w.serve("backup-a", desc("a", 0.9, 1))
	if unrelated.Peer() != "other-peer" {
		t.Fatalf("third binding on %s, want other-peer", unrelated.Peer())
	}

	if moved, aborted := w.consumer.HandoffPeer("dying"); moved != 1 || aborted != 1 {
		t.Fatalf("hand-off moved %d, aborted %d; want 1, 1", moved, aborted)
	}
	if onA.Peer() == "dying" || onB.Peer() != "dying" {
		t.Fatalf("after hand-off: a on %s, b on %s", onA.Peer(), onB.Peer())
	}
	// The binding on another peer is left alone.
	if unrelated.Peer() != "other-peer" || unrelated.Rebinds.Load() != 0 {
		t.Fatalf("unrelated binding moved: peer %s, %d rebinds", unrelated.Peer(), unrelated.Rebinds.Load())
	}
}

func TestHandoffEmptyPeer(t *testing.T) {
	w := newHandoffWorld(t)
	w.serve("supplier", desc("svc", 0.9, 1))
	b := w.bind(svcdesc.Query{Name: "svc"})
	if moved, aborted := w.consumer.HandoffPeer("ghost"); moved != 0 || aborted != 0 {
		t.Fatalf("hand-off of an unknown peer moved %d, aborted %d", moved, aborted)
	}
	if b.Rebinds.Load() != 0 {
		t.Fatal("binding on another peer rebound")
	}
}

// TestHandoffUnderLoad moves bindings while four goroutines send on them:
// every request is answered, by the old supplier or the new one, and each
// binding moves exactly once.
func TestHandoffUnderLoad(t *testing.T) {
	w := newHandoffWorld(t)
	w.serve("old", desc("svc", 0.9, 1))
	bindings := make([]*core.Binding, 8)
	for i := range bindings {
		bindings[i] = w.bind(svcdesc.Query{Name: "svc"})
	}
	w.serve("new", desc("svc", 0.9, 1))

	const workers = 4
	var (
		stop    atomic.Bool
		started sync.WaitGroup
		wg      sync.WaitGroup
		errs    = make(chan error, workers)
	)
	started.Add(workers)
	for g := 0; g < workers; g++ {
		mine := bindings[g*2 : g*2+2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			signalled := false
			defer func() {
				if !signalled {
					started.Done()
				}
			}()
			for i := 0; i < 20 || !stop.Load(); i++ {
				if i == 20 {
					started.Done()
					signalled = true
				}
				out, err := mine[i%len(mine)].Request(nil)
				if err != nil {
					errs <- err
					return
				}
				if s := string(out); s != "old" && s != "new" {
					errs <- fmt.Errorf("answered by %q", s)
					return
				}
			}
		}()
	}
	started.Wait()
	moved, aborted := w.consumer.HandoffPeer("old")
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("request during hand-off: %v", err)
	}
	if moved != len(bindings) || aborted != 0 {
		t.Fatalf("hand-off moved %d, aborted %d; want %d, 0", moved, aborted, len(bindings))
	}
	for i, b := range bindings {
		if b.Peer() != "new" || b.Rebinds.Load() != 1 {
			t.Fatalf("binding %d: peer %s, %d rebinds; want new, 1", i, b.Peer(), b.Rebinds.Load())
		}
		w.answeredBy(b, "new")
	}
}
