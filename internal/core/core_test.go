package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ndsm/internal/discovery"
	"ndsm/internal/qos"
	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transaction"
	"ndsm/internal/transport"
)

// world is a little deployment: a shared fabric, a shared registry, and a
// helper to start nodes in it.
type world struct {
	t        *testing.T
	fabric   *transport.Fabric
	registry *discovery.Store
}

func newWorld(t *testing.T) *world {
	return &world{t: t, fabric: transport.NewFabric(), registry: discovery.NewStore(nil, 0)}
}

func (w *world) node(name string) *Node {
	w.t.Helper()
	n, err := NewNode(Config{
		Name:      name,
		Transport: transport.NewMem(w.fabric),
		Registry:  w.registry,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { _ = n.Close() })
	return n
}

func bpDesc(rel float64) *svcdesc.Description {
	return &svcdesc.Description{
		Name:        "sensor/bp",
		Reliability: rel,
		PowerLevel:  1,
	}
}

func echoHandler(prefix string) Handler {
	return func(p []byte) ([]byte, error) {
		return append([]byte(prefix), p...), nil
	}
}

func TestNodeConfigValidation(t *testing.T) {
	w := newWorld(t)
	if _, err := NewNode(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewNode(Config{Name: "x"}); err == nil {
		t.Fatal("missing transport accepted")
	}
	if _, err := NewNode(Config{Name: "x", Transport: transport.NewMem(w.fabric)}); err == nil {
		t.Fatal("missing registry accepted")
	}
}

func TestServeAndBind(t *testing.T) {
	w := newWorld(t)
	sup := w.node("supplier-1")
	con := w.node("consumer-1")

	if err := sup.Serve(bpDesc(0.9), echoHandler("bp:")); err != nil {
		t.Fatal(err)
	}
	b, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Peer() != "supplier-1" {
		t.Fatalf("peer = %s", b.Peer())
	}
	out, err := b.Request([]byte("read"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "bp:read" {
		t.Fatalf("out = %q", out)
	}
	rep := b.Tracker().Report()
	if rep.Delivered != 1 || rep.Failed != 0 {
		t.Fatalf("tracker = %+v", rep)
	}
}

func TestBindSelectsBestQoS(t *testing.T) {
	w := newWorld(t)
	weak := w.node("weak")
	strong := w.node("strong")
	con := w.node("consumer")
	if err := weak.Serve(bpDesc(0.5), echoHandler("weak:")); err != nil {
		t.Fatal(err)
	}
	if err := strong.Serve(bpDesc(0.99), echoHandler("strong:")); err != nil {
		t.Fatal(err)
	}
	b, err := con.Bind(&qos.Spec{
		Query:   svcdesc.Query{Name: "sensor/bp"},
		Weights: qos.Weights{Reliability: 1},
	}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Peer() != "strong" {
		t.Fatalf("bound %s, want strong", b.Peer())
	}
}

func TestBindNoSupplier(t *testing.T) {
	w := newWorld(t)
	con := w.node("consumer")
	if _, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "nothing"}}, BindOptions{}); !errors.Is(err, ErrNoSupplier) {
		t.Fatalf("err = %v", err)
	}
}

func TestGracefulDegradationRebind(t *testing.T) {
	w := newWorld(t)
	primary := w.node("primary")
	backup := w.node("backup")
	con := w.node("consumer")
	if err := primary.Serve(bpDesc(0.99), echoHandler("primary:")); err != nil {
		t.Fatal(err)
	}
	if err := backup.Serve(bpDesc(0.5), echoHandler("backup:")); err != nil {
		t.Fatal(err)
	}
	b, err := con.Bind(&qos.Spec{
		Query:   svcdesc.Query{Name: "sensor/bp"},
		Weights: qos.Weights{Reliability: 1},
	}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Peer() != "primary" {
		t.Fatalf("initial peer = %s", b.Peer())
	}

	events := con.Events.Subscribe()

	// Crash the primary: the supplier node goes away entirely.
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	_ = w.registry.Unregister(svcdescKey("primary"))

	out, err := b.Request([]byte("x"))
	if err != nil {
		t.Fatalf("request after primary crash: %v", err)
	}
	if string(out) != "backup:x" {
		t.Fatalf("out = %q", out)
	}
	if b.Peer() != "backup" {
		t.Fatalf("peer = %s, want backup", b.Peer())
	}
	if b.Rebinds.Load() != 1 {
		t.Fatalf("rebinds = %d", b.Rebinds.Load())
	}
	// A rebound event was published.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-events:
			if ev.Type == EventRebound && ev.Peer == "backup" {
				return
			}
		case <-deadline:
			t.Fatal("no rebound event")
		}
	}
}

func svcdescKey(provider string) string {
	d := bpDesc(0.9)
	d.Provider = provider
	return d.Key()
}

func TestBindingLostWhenNoAlternative(t *testing.T) {
	w := newWorld(t)
	only := w.node("only")
	con := w.node("consumer")
	if err := only.Serve(bpDesc(0.9), echoHandler("x:")); err != nil {
		t.Fatal(err)
	}
	b, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	_ = only.Close()
	_ = w.registry.Unregister(svcdescKey("only"))
	if _, err := b.Request([]byte("x")); err == nil {
		t.Fatal("request succeeded with no suppliers left")
	}
}

func TestRemoteErrorDoesNotRebind(t *testing.T) {
	w := newWorld(t)
	sup := w.node("supplier")
	con := w.node("consumer")
	if err := sup.Serve(bpDesc(0.9), func([]byte) ([]byte, error) {
		return nil, errors.New("sensor saturated")
	}); err != nil {
		t.Fatal(err)
	}
	b, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	_, err = b.Request([]byte("x"))
	if err == nil || !strings.Contains(err.Error(), "sensor saturated") {
		t.Fatalf("err = %v", err)
	}
	if b.Rebinds.Load() != 0 {
		t.Fatal("application error triggered rebind")
	}
}

func TestRequestTimeout(t *testing.T) {
	w := newWorld(t)
	sup := w.node("supplier")
	con := w.node("consumer")
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	if err := sup.Serve(bpDesc(0.9), func([]byte) ([]byte, error) {
		<-block
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	b, err := con.Bind(&qos.Spec{
		Query:   svcdesc.Query{Name: "sensor/bp"},
		Benefit: qos.Benefit{FullUntil: 20 * time.Millisecond, ZeroAfter: 40 * time.Millisecond},
	}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Request([]byte("x")); err == nil {
		t.Fatal("request should fail (timeout, no alternative)")
	}
	if rep := b.Tracker().Report(); rep.Failed == 0 {
		t.Fatalf("tracker = %+v", rep)
	}
}

func TestWithdraw(t *testing.T) {
	w := newWorld(t)
	sup := w.node("supplier")
	if err := sup.Serve(bpDesc(0.9), echoHandler("x:")); err != nil {
		t.Fatal(err)
	}
	if _, ok := sup.suppliers["sensor/bp"]; !ok || len(sup.suppliers) != 1 {
		t.Fatalf("services = %v", sup.suppliers)
	}
	if err := sup.Withdraw("sensor/bp"); err != nil {
		t.Fatal(err)
	}
	if err := sup.Withdraw("sensor/bp"); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("double withdraw: %v", err)
	}
	descs, _ := w.registry.Lookup(&svcdesc.Query{Name: "sensor/bp"})
	if len(descs) != 0 {
		t.Fatal("withdrawn service still advertised")
	}
}

func TestServeDuplicate(t *testing.T) {
	w := newWorld(t)
	sup := w.node("supplier")
	if err := sup.Serve(bpDesc(0.9), echoHandler("a:")); err != nil {
		t.Fatal(err)
	}
	if err := sup.Serve(bpDesc(0.9), echoHandler("b:")); !errors.Is(err, ErrServiceExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestServeValidation(t *testing.T) {
	w := newWorld(t)
	sup := w.node("supplier")
	if err := sup.Serve(bpDesc(0.9), nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	if err := sup.Serve(&svcdesc.Description{}, echoHandler("")); err == nil {
		t.Fatal("invalid description accepted")
	}
}

func TestRenewLeases(t *testing.T) {
	clk := simtime.NewVirtual(time.Unix(0, 0))
	w := newWorld(t)
	w.registry = discovery.NewStore(clk, 10*time.Second)
	sup := w.node("supplier")
	if err := sup.Serve(bpDesc(0.9), echoHandler("x:")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(6 * time.Second)
	if err := sup.RenewLeases(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(6 * time.Second)
	if descs, _ := w.registry.Lookup(&svcdesc.Query{Name: "sensor/bp"}); len(descs) != 1 {
		t.Fatal("renew did not extend the lease")
	}
}

func TestMultipleServicesOneNode(t *testing.T) {
	w := newWorld(t)
	sup := w.node("multi")
	con := w.node("consumer")
	if err := sup.Serve(bpDesc(0.9), echoHandler("bp:")); err != nil {
		t.Fatal(err)
	}
	hr := &svcdesc.Description{Name: "sensor/hr", Reliability: 0.9, PowerLevel: 1}
	if err := sup.Serve(hr, echoHandler("hr:")); err != nil {
		t.Fatal(err)
	}
	bBP, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer bBP.Close()
	bHR, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/hr"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer bHR.Close()
	if out, _ := bBP.Request([]byte("1")); string(out) != "bp:1" {
		t.Fatalf("bp out = %q", out)
	}
	if out, _ := bHR.Request([]byte("2")); string(out) != "hr:2" {
		t.Fatalf("hr out = %q", out)
	}
}

func TestNodeCloseIdempotentAndEvents(t *testing.T) {
	w := newWorld(t)
	n := w.node("n")
	events := n.Events.Subscribe()
	if err := n.Serve(bpDesc(0.9), echoHandler("")); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Type != EventServiceUp {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no service-up event")
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Serve(bpDesc(0.9), echoHandler("")); !errors.Is(err, ErrNodeClosed) {
		t.Fatalf("serve after close: %v", err)
	}
	if _, err := n.Bind(&qos.Spec{Query: svcdesc.Query{Name: "x"}}, BindOptions{}); !errors.Is(err, ErrNodeClosed) {
		t.Fatalf("bind after close: %v", err)
	}
}

func TestEventBusDropsWhenFull(t *testing.T) {
	var bus Bus
	ch := bus.Subscribe() // never drained
	for i := 0; i < eventBuffer+5; i++ {
		bus.Publish(Event{Type: EventServiceUp})
	}
	if len(ch) != eventBuffer {
		t.Fatalf("queued = %d, want %d", len(ch), eventBuffer)
	}
}

func TestTransactionRecorded(t *testing.T) {
	w := newWorld(t)
	sup := w.node("supplier")
	con := w.node("consumer")
	if err := sup.Serve(bpDesc(0.9), echoHandler("x:")); err != nil {
		t.Fatal(err)
	}
	b, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	active := con.table.ByPeer("supplier")
	if len(active) != 1 || active[0].State != transaction.StateActive || active[0].Topic != "sensor/bp" {
		t.Fatalf("active = %+v", active)
	}
	_ = b.Close()
	if len(con.table.ByPeer("supplier")) != 0 {
		t.Fatal("transaction still active after binding close")
	}
}

func TestBindCloseCyclesLeaveNoTransactions(t *testing.T) {
	w := newWorld(t)
	sup := w.node("supplier")
	con := w.node("consumer")
	if err := sup.Serve(bpDesc(0.9), echoHandler("x:")); err != nil {
		t.Fatal(err)
	}
	spec := &qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}
	for i := 0; i < 1000; i++ {
		b, err := con.Bind(spec, BindOptions{})
		if err != nil {
			t.Fatalf("bind %d: %v", i, err)
		}
		// A round trip per cycle keeps the supplier's accept loop level
		// with the dials (the mem listener refuses past 16 waiting).
		if _, err := b.Request([]byte("read")); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if err := b.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	if n := len(con.table.ByPeer("supplier")); n != 0 {
		t.Fatalf("transaction table holds %d records after 1000 bind/close cycles, want 0", n)
	}
}

func TestConcurrentBindingsShareSupplier(t *testing.T) {
	w := newWorld(t)
	sup := w.node("supplier")
	if err := sup.Serve(bpDesc(0.9), echoHandler("s:")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		con := w.node(fmt.Sprintf("consumer-%d", i))
		b, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := b.Request([]byte("q"))
		if err != nil || string(out) != "s:q" {
			t.Fatalf("consumer %d: %q, %v", i, out, err)
		}
		_ = b.Close()
	}
}

func TestBindingPollContinuous(t *testing.T) {
	w := newWorld(t)
	sup := w.node("supplier")
	con := w.node("consumer")
	n := 0
	if err := sup.Serve(bpDesc(0.9), func([]byte) ([]byte, error) {
		n++
		return []byte(fmt.Sprintf("sample-%d", n)), nil
	}); err != nil {
		t.Fatal(err)
	}
	b, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var mu sync.Mutex
	var got []string
	done := make(chan struct{})
	stop := b.Poll(transaction.Periodic{Period: 5 * time.Millisecond}, []byte("read"),
		func(out []byte, err error) {
			if err != nil {
				return
			}
			mu.Lock()
			got = append(got, string(out))
			if len(got) == 3 {
				close(done)
			}
			mu.Unlock()
		})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("continuous transaction never delivered 3 samples")
	}
	stop()
	mu.Lock()
	defer mu.Unlock()
	if got[0] != "sample-1" || got[2] != "sample-3" {
		t.Fatalf("samples = %v", got)
	}
	if rep := b.Tracker().Report(); rep.Delivered < 3 {
		t.Fatalf("tracker = %+v", rep)
	}
}

func TestBindingPollStopsAfterClose(t *testing.T) {
	w := newWorld(t)
	sup := w.node("supplier")
	con := w.node("consumer")
	if err := sup.Serve(bpDesc(0.9), echoHandler("x:")); err != nil {
		t.Fatal(err)
	}
	b, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stop := b.Poll(transaction.Periodic{Period: time.Millisecond}, nil, func([]byte, error) {})
	_ = b.Close()
	// The pump's source sees the closed binding and ends; stop must not hang.
	finished := make(chan struct{})
	go func() {
		stop()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("Poll stop hung after binding close")
	}
}

func TestProactiveRebindOnQoSFloor(t *testing.T) {
	w := newWorld(t)
	poor := w.node("poor")
	good := w.node("good")
	con := w.node("consumer")
	// The poor supplier has the higher advertised reliability, so it wins
	// the initial match — but it will fail to deliver.
	if err := poor.Serve(bpDesc(0.99), echoHandler("poor:")); err != nil {
		t.Fatal(err)
	}
	if err := good.Serve(bpDesc(0.9), echoHandler("good:")); err != nil {
		t.Fatal(err)
	}
	b, err := con.Bind(&qos.Spec{
		Query:   svcdesc.Query{Name: "sensor/bp"},
		Weights: qos.Weights{Reliability: 1},
	}, BindOptions{MinDeliveryRatio: 0.9, MinSamples: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Peer() != "poor" {
		t.Fatalf("initial peer = %s", b.Peer())
	}
	// Simulate observed delivery failures (e.g. lost samples on a stream)
	// without a transport failure.
	for i := 0; i < 5; i++ {
		b.Tracker().ObserveFailure()
	}
	out, err := b.Request([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "good:x" {
		t.Fatalf("out = %q — proactive rebind did not happen", out)
	}
	if b.Peer() != "good" || b.Rebinds.Load() != 1 {
		t.Fatalf("peer=%s rebinds=%d", b.Peer(), b.Rebinds.Load())
	}
	// The tracker was reset by the handoff, so the next request does not
	// rebind again.
	if _, err := b.Request([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if b.Rebinds.Load() != 1 {
		t.Fatalf("rebinds = %d after healthy request", b.Rebinds.Load())
	}
}

func TestQoSFloorWithoutAlternativeKeepsServing(t *testing.T) {
	w := newWorld(t)
	only := w.node("only")
	con := w.node("consumer")
	if err := only.Serve(bpDesc(0.9), echoHandler("only:")); err != nil {
		t.Fatal(err)
	}
	b, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}},
		BindOptions{MinDeliveryRatio: 0.9, MinSamples: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 3; i++ {
		b.Tracker().ObserveFailure()
	}
	// No alternative exists; the request must still go through on the
	// current (violating) supplier.
	out, err := b.Request([]byte("x"))
	if err != nil || string(out) != "only:x" {
		t.Fatalf("out=%q err=%v", out, err)
	}
}

func TestRequestAsyncPipelined(t *testing.T) {
	w := newWorld(t)
	sup := w.node("supplier-1")
	con := w.node("consumer-1")
	if err := sup.Serve(bpDesc(0.9), echoHandler("bp:")); err != nil {
		t.Fatal(err)
	}
	b, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 32
	replies := make([]*AsyncReply, n)
	for i := range replies {
		replies[i] = b.RequestAsync([]byte(fmt.Sprintf("r-%d", i)))
	}
	for i, r := range replies {
		out, err := r.Wait()
		if err != nil {
			t.Fatalf("async request %d: %v", i, err)
		}
		if want := fmt.Sprintf("bp:r-%d", i); string(out) != want {
			t.Fatalf("reply %d = %q, want %q", i, out, want)
		}
		// Wait is idempotent.
		again, err2 := r.Wait()
		if err2 != nil || string(again) != string(out) {
			t.Fatalf("second Wait diverged: %q %v", again, err2)
		}
	}
	// The tracker observed the deliveries.
	if got := b.Tracker().Report().Delivered; got < n {
		t.Fatalf("tracker saw %d deliveries, want >= %d", got, n)
	}
}

func TestRequestAsyncAfterClose(t *testing.T) {
	w := newWorld(t)
	sup := w.node("supplier-1")
	con := w.node("consumer-1")
	if err := sup.Serve(bpDesc(0.9), echoHandler("bp:")); err != nil {
		t.Fatal(err)
	}
	b, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = b.Close()
	if _, err := b.RequestAsync(nil).Wait(); !errors.Is(err, ErrNodeClosed) {
		t.Fatalf("err = %v, want ErrNodeClosed", err)
	}
}
