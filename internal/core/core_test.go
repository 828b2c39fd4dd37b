package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"ndsm/internal/discovery"
	"ndsm/internal/endpoint"
	"ndsm/internal/obs"
	"ndsm/internal/qos"
	"ndsm/internal/reqlog"
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
	return w.nodeWith(Config{Name: name})
}

// nodeWith starts a node from cfg, on the world's fabric and registry.
func (w *world) nodeWith(cfg Config) *Node {
	w.t.Helper()
	cfg.Transport, cfg.Registry = transport.NewMem(w.fabric), w.registry
	n, err := NewNode(cfg)
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
	if err := n.Serve(bpDesc(0.9), echoHandler("")); err != nil {
		t.Fatal(err)
	}
	// The service is up once the registry lists it under the node's name.
	up, err := w.registry.Lookup(&svcdesc.Query{Name: "sensor/bp"})
	if err != nil || len(up) != 1 || up[0].Provider != "n" {
		t.Fatalf("lookup after serve = %v, %v; want one description from n", up, err)
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
	if live := liveBindings(con); len(live) != 1 || live[0] != b || b.Peer() != "supplier" {
		t.Fatalf("live bindings = %v, want the one binding on supplier", live)
	}
	_ = b.Close()
	if live := liveBindings(con); len(live) != 0 {
		t.Fatalf("closed binding still live: %v", live)
	}
}

// liveBindings copies the node's record of its live bindings.
func liveBindings(n *Node) []*Binding {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*Binding(nil), n.bindings...)
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
	if n := len(liveBindings(con)); n != 0 {
		t.Fatalf("node holds %d bindings after 1000 bind/close cycles, want 0", n)
	}
}

// closingRegistry runs onLookup, when set, before it looks up: a Close
// there races the Bind or Rebind that looks up.
type closingRegistry struct {
	discovery.Resolver
	onLookup func()
}

func (r *closingRegistry) Lookup(q *svcdesc.Query) ([]*svcdesc.Description, error) {
	if r.onLookup != nil {
		r.onLookup()
	}
	return r.Resolver.Lookup(q)
}

func TestBindRacingCloseFails(t *testing.T) {
	w := newWorld(t)
	sup := w.node("supplier")
	if err := sup.Serve(bpDesc(0.9), echoHandler("x:")); err != nil {
		t.Fatal(err)
	}
	reg := &closingRegistry{Resolver: w.registry}
	con := w.nodeWith(Config{Name: "consumer"})
	con.registry = reg
	reg.onLookup = func() { _ = con.Close() }
	b, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if !errors.Is(err, ErrNodeClosed) || b != nil {
		t.Fatalf("Bind during Close = %v, %v; want nil, ErrNodeClosed", b, err)
	}
	if n := len(liveBindings(con)); n != 0 {
		t.Fatalf("closed node holds %d bindings", n)
	}
}

func TestRebindRacingCloseFails(t *testing.T) {
	w := newWorld(t)
	for _, name := range []string{"s1", "s2"} {
		if err := w.node(name).Serve(bpDesc(0.9), echoHandler(name+":")); err != nil {
			t.Fatal(err)
		}
	}
	reg := &closingRegistry{Resolver: w.registry}
	con := w.nodeWith(Config{Name: "consumer"})
	con.registry = reg
	b, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	from := b.Peer()
	reg.onLookup = func() { _ = b.Close() }
	// A closed binding keeps no caller: the one dialled for the rebind is
	// closed, not installed.
	if err := b.Rebind(); !errors.Is(err, ErrNodeClosed) {
		t.Fatalf("Rebind during Close = %v, want ErrNodeClosed", err)
	}
	if b.Peer() != from || b.Rebinds.Load() != 0 {
		t.Fatalf("closed binding moved to %s (%d rebinds)", b.Peer(), b.Rebinds.Load())
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

// Sixteen goroutines waiting on one AsyncReply all get the same reply, and
// the QoS tracker observes the call once.
func TestRequestAsyncConcurrentWaits(t *testing.T) {
	w := newWorld(t)
	if err := w.node("supplier-1").Serve(bpDesc(0.9), echoHandler("bp:")); err != nil {
		t.Fatal(err)
	}
	b, err := w.node("consumer-1").Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	r := b.RequestAsync([]byte("once"))
	var wg sync.WaitGroup
	outs := make([][]byte, 16)
	errs := make([]error, len(outs))
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = r.Wait()
		}(i)
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil || string(outs[i]) != "bp:once" || &outs[i][0] != &outs[0][0] {
			t.Fatalf("waiter %d got %q, %v; want the one reply bp:once", i, outs[i], errs[i])
		}
	}
	if rep := b.Tracker().Report(); rep.Delivered != 1 || rep.Failed != 0 {
		t.Fatalf("tracker = %+v, want one delivery", rep)
	}
}

// An async call that outlives the binding's QoS deadline fails with the
// message that names the peer and the deadline, both derived from the
// binding rather than carried by the AsyncReply, and counts one failure.
func TestRequestAsyncTimeoutNamesPeer(t *testing.T) {
	w := newWorld(t)
	block := make(chan struct{})
	defer close(block)
	if err := w.node("supplier-1").Serve(bpDesc(0.9), func(p []byte) ([]byte, error) {
		<-block
		return p, nil
	}); err != nil {
		t.Fatal(err)
	}
	b, err := w.node("consumer-1").Bind(&qos.Spec{
		Query:   svcdesc.Query{Name: "sensor/bp"},
		Benefit: qos.Benefit{FullUntil: 20 * time.Millisecond, ZeroAfter: 40 * time.Millisecond},
	}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	r := b.RequestAsync([]byte("late"))
	const want = "core: request to supplier-1 timed out after 40ms"
	for i := 0; i < 2; i++ {
		if _, err := r.Wait(); err == nil || err.Error() != want {
			t.Fatalf("Wait %d = %v, want %q", i, err, want)
		}
	}
	if rep := b.Tracker().Report(); rep.Delivered != 0 || rep.Failed != 1 {
		t.Fatalf("tracker = %+v, want one failure", rep)
	}
}

// An async call in flight when another goroutine hands its binding off fails
// with the old caller's ErrClosed. That close is the binding's own act, not
// a failure of either supplier: the new supplier's fresh tracker stays clean.
func TestRequestAsyncHandoffIsNoFailure(t *testing.T) {
	w := newWorld(t)
	entered, block := make(chan struct{}, 1), make(chan struct{})
	defer close(block)
	if err := w.node("s1").Serve(bpDesc(0.95), func(p []byte) ([]byte, error) {
		entered <- struct{}{}
		<-block
		return p, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.node("s2").Serve(bpDesc(0.9), echoHandler("s2:")); err != nil {
		t.Fatal(err)
	}
	con := w.node("consumer-1")
	b, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Peer() != "s1" {
		t.Fatalf("bound %s, want s1", b.Peer())
	}
	r := b.RequestAsync([]byte("held"))
	<-entered
	if moved, aborted := con.HandoffPeer("s1"); moved != 1 || aborted != 0 {
		t.Fatalf("hand-off moved %d, aborted %d; want 1, 0", moved, aborted)
	}
	if _, err := r.Wait(); !errors.Is(err, endpoint.ErrClosed) {
		t.Fatalf("held call settled with %v, want the old caller's ErrClosed", err)
	}
	if rep := b.Tracker().Report(); rep.Failed != 0 {
		t.Fatalf("tracker after the hand-off = %+v, want no failure", rep)
	}
}

// An ErrClosed from the caller the binding still uses is no local act: the
// supplier's connection is gone and the caller, which does not redial, fails
// every later call with it. Each such async call counts as a failure, so an
// async-only consumer's delivery ratio still sees the dead supplier.
func TestRequestAsyncToDeadSupplierCountsFailures(t *testing.T) {
	w := newWorld(t)
	sup := w.node("supplier-1")
	if err := sup.Serve(bpDesc(0.9), echoHandler("s:")); err != nil {
		t.Fatal(err)
	}
	b, err := w.node("consumer-1").Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.RequestAsync([]byte("up")).Wait(); err != nil {
		t.Fatal(err)
	}
	_ = sup.Close()
	for i := 0; i < 2; i++ {
		if _, err := b.RequestAsync([]byte("down")).Wait(); err == nil {
			t.Fatalf("call %d to a closed supplier succeeded", i)
		}
	}
	if rep := b.Tracker().Report(); rep.Delivered != 1 || rep.Failed != 2 {
		t.Fatalf("tracker = %+v, want one delivery and two failures", rep)
	}
}

// A node on a virtual clock times its dispatch metrics on that clock, as it
// does its deadlines and wide events: a handler that takes 250 virtual
// milliseconds records 250 in core.node.latency_ms, not the wall time the
// call really took.
func TestNodeServerMetricsUseNodeClock(t *testing.T) {
	w := newWorld(t)
	clock := simtime.NewVirtual(time.Unix(1000, 0))
	reg := obs.NewRegistry()
	slow := func(p []byte) ([]byte, error) {
		clock.Advance(250 * time.Millisecond)
		return p, nil
	}
	if err := w.nodeWith(Config{Name: "supplier-1", Clock: clock, Metrics: reg}).Serve(bpDesc(0.9), slow); err != nil {
		t.Fatal(err)
	}
	b, err := w.nodeWith(Config{Name: "consumer-1", Clock: clock}).Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Request([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram("core.node.latency_ms").Summary(); got.Count != 1 || got.Mean < 249 || got.Mean > 251 {
		t.Fatalf("core.node.latency_ms = %+v, want one observation of 250", got)
	}
}

// countingClock is wall time that counts its reads, Now and Since apart.
type countingClock struct {
	simtime.Real
	nows, sinces atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.nows.Add(1)
	return time.Now()
}

func (c *countingClock) Since(t time.Time) time.Duration {
	c.sinces.Add(1)
	return time.Since(t)
}

// Every clock read on a call's path is the node clock's, so a counting clock
// on both nodes counts them all. With request logs on both nodes, as in the
// rpc_small_tcp benchmark, each side times a call once: the caller reads Now
// when the call starts (Do, before its interceptors; Start for RequestAsync)
// and Since when the reply settles its future, and the binding's QoS
// tracker, the client's wide event and its metrics all read that one
// interval; the server reads Now and Since around a dispatch, which times
// both its wide event and its metrics. So a bound Request and a
// RequestAsync+Wait each read Now twice and Since twice (10 and 6 Nows
// before), with a deadline too: a Wait that blocks arms its timer at the
// instant the call ends and reads nothing (it read Since once more on the
// wall clock, and twice more on a clock that wraps it). The caller's deadline
// sweep adds one Now per 256 calls. A
// read is not free: on a virtualized Intel Xeon (go1.24, one processor)
// time.Now costs 64-72 ns and time.Since, which reads only the monotonic
// clock, 35-39 ns.
func TestClockReadsPerCall(t *testing.T) {
	w := newWorld(t)
	clock := &countingClock{}
	node := func(name string) *Node {
		return w.nodeWith(Config{Name: name, Clock: clock, ReqLog: reqlog.New(reqlog.Options{SampleEvery: 64})})
	}
	if err := node("supplier-1").Serve(bpDesc(0.9), echoHandler("")); err != nil {
		t.Fatal(err)
	}
	consumer := node("consumer-1")
	b, err := consumer.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// A binding with a QoS deadline, so a Wait that blocks arms a timer.
	timed, err := consumer.Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}, Benefit: qos.Benefit{ZeroAfter: time.Hour}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer timed.Close()
	const calls = 256 // one deadline sweep each
	readsPer := func(call func() error) (nows, sinces float64) {
		for i := 0; i < 10; i++ {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		}
		n, s := clock.nows.Load(), clock.sinces.Load()
		for i := 0; i < calls; i++ {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		}
		return float64(clock.nows.Load()-n) / calls, float64(clock.sinces.Load()-s) / calls
	}
	const sweep = 1.0 / calls
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Binding.Request", func() error { _, err := b.Request([]byte("x")); return err }},
		{"RequestAsync and Wait", func() error { _, err := b.RequestAsync([]byte("x")).Wait(); return err }},
		{"Binding.Request with a deadline", func() error { _, err := timed.Request([]byte("x")); return err }},
		{"RequestAsync and Wait with a deadline", func() error { _, err := timed.RequestAsync([]byte("x")).Wait(); return err }},
	} {
		nows, sinces := readsPer(c.call)
		t.Logf("%s reads Now %.3f and Since %.3f times a call", c.name, nows, sinces)
		if nows > 2+sweep || sinces > 2 {
			t.Errorf("%s reads Now %.3f and Since %.3f times a call, want at most 2 each", c.name, nows, sinces)
		}
	}
}

// Each side times a call once and every layer reads that one interval. On a
// virtual clock, a handler that takes 250 ms shows exactly 250 ms to all of
// them: the binding's QoS tracker, core.binding.latency_ms and the client's
// wide event (for a bound Request; RequestAsync skips the client
// interceptors), and core.node.latency_ms and the server's wide event.
func TestOneStopwatchPerSide(t *testing.T) {
	w := newWorld(t)
	clock := simtime.NewVirtual(time.Unix(1000, 0))
	const took = 250 * time.Millisecond
	node := func(name string, reg *obs.Registry, rec *reqlog.Recorder) *Node {
		return w.nodeWith(Config{Name: name, Clock: clock, Metrics: reg, ReqLog: rec})
	}
	supReg, conReg := obs.NewRegistry(), obs.NewRegistry()
	supLog, conLog := reqlog.New(reqlog.Options{SampleEvery: 1}), reqlog.New(reqlog.Options{SampleEvery: 1})
	slow := func(p []byte) ([]byte, error) {
		clock.Advance(took)
		return p, nil
	}
	if err := node("supplier-1", supReg, supLog).Serve(bpDesc(0.9), slow); err != nil {
		t.Fatal(err)
	}
	b, err := node("consumer-1", conReg, conLog).Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	wantMillis := func(name string, h *obs.Histogram, count int) {
		t.Helper()
		if got := h.Summary(); got.Count != count || got.Min != 250 || got.Max != 250 {
			t.Errorf("%s = %+v, want %d observations of 250", name, got, count)
		}
	}
	wantEvents := func(rec *reqlog.Recorder, kind string, count int) {
		t.Helper()
		evs := rec.Snapshot(reqlog.Filter{Kind: kind})
		if len(evs) != count {
			t.Fatalf("%d %s wide events, want %d", len(evs), kind, count)
		}
		for _, ev := range evs {
			if ev.Latency != took {
				t.Errorf("%s wide event latency %v, want %v", kind, ev.Latency, took)
			}
		}
	}

	if _, err := b.Request([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RequestAsync([]byte("x")).Wait(); err != nil {
		t.Fatal(err)
	}
	if rep := b.Tracker().Report(); rep.Delivered != 2 || rep.MeanDelay != took {
		t.Errorf("tracker = %+v, want 2 deliveries of %v", rep, took)
	}
	wantMillis("core.binding.latency_ms", conReg.Histogram("core.binding.latency_ms"), 1)
	wantEvents(conLog, reqlog.KindClient, 1)
	wantMillis("core.node.latency_ms", supReg.Histogram("core.node.latency_ms"), 2)
	wantEvents(supLog, reqlog.KindServer, 2)
}

// A pipelined call's handles hold nothing their binding or their pooled
// waiter already holds: the call's ID and start are the waiter's, and the
// Future carries only the elapsed time its Wait measured. The Future is 64 B,
// a size class of its own, and the AsyncReply around it 128 B, another: with
// a 64 B reply's payload, 192 B per RequestAsync
// (TestBindingRequestAsyncAllocsTCP counts them). A field added to either
// moves it up a class: to 80 and 144 B.
func TestAsyncHandleSizes(t *testing.T) {
	var fut endpoint.Future
	var r AsyncReply
	if got := unsafe.Sizeof(fut); got > 64 {
		t.Errorf("endpoint.Future is %d B, want at most 64", got)
	}
	if got := unsafe.Sizeof(r); got > 128 {
		t.Errorf("AsyncReply is %d B, want at most 128", got)
	}
}
