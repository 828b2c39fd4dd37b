package core

import (
	"sync/atomic"
	"testing"
	"time"

	"ndsm/internal/discovery"
	"ndsm/internal/endpoint"
	"ndsm/internal/health"
	"ndsm/internal/obs"
	"ndsm/internal/qos"
	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transport"
)

// healthNode starts a node with a liveness monitor (and optional admission
// bound) in the world.
func (w *world) healthNode(name string, m *health.Monitor, maxInFlight int) *Node {
	w.t.Helper()
	n, err := NewNode(Config{
		Name:        name,
		Transport:   transport.NewMem(w.fabric),
		Registry:    w.registry,
		Health:      m,
		MaxInFlight: maxInFlight,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { _ = n.Close() })
	return n
}

func testMonitor(clock simtime.Clock) *health.Monitor {
	return health.NewMonitor(health.Options{Clock: clock, Registry: obs.NewRegistry()})
}

func bpSpec() *qos.Spec {
	return &qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}
}

func TestSelectPeerSkipsSuspectedPeers(t *testing.T) {
	w := newWorld(t)
	hi := w.node("s-hi")
	lo := w.node("s-lo")
	if err := hi.Serve(bpDesc(0.95), echoHandler("hi:")); err != nil {
		t.Fatal(err)
	}
	if err := lo.Serve(bpDesc(0.90), echoHandler("lo:")); err != nil {
		t.Fatal(err)
	}

	clock := simtime.NewVirtual(time.Unix(0, 0))
	m := testMonitor(clock)
	con := w.healthNode("consumer-1", m, 0)

	// Open s-hi's circuit: QoS selection would prefer it (0.95 > 0.90), but
	// the liveness layer overrules reliability on suspicion.
	m.ReportFailure("s-hi")
	m.ReportFailure("s-hi")

	b, err := con.Bind(bpSpec(), BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck
	if b.Peer() != "s-lo" {
		t.Fatalf("bound %s, want the unsuspected s-lo", b.Peer())
	}
}

func TestSelectPeerFallsBackWhenAllSuspected(t *testing.T) {
	w := newWorld(t)
	hi := w.node("s-hi")
	lo := w.node("s-lo")
	if err := hi.Serve(bpDesc(0.95), echoHandler("hi:")); err != nil {
		t.Fatal(err)
	}
	if err := lo.Serve(bpDesc(0.90), echoHandler("lo:")); err != nil {
		t.Fatal(err)
	}

	clock := simtime.NewVirtual(time.Unix(0, 0))
	m := testMonitor(clock)
	con := w.healthNode("consumer-1", m, 0)

	// Both circuits open: an unreliable detector suspecting everyone must
	// not strand the binding — selection falls back to the full set.
	for _, peer := range []string{"s-hi", "s-lo"} {
		m.ReportFailure(peer)
		m.ReportFailure(peer)
	}
	b, err := con.Bind(bpSpec(), BindOptions{})
	if err != nil {
		t.Fatalf("all-suspected selection stranded the binding: %v", err)
	}
	defer b.Close() //nolint:errcheck
	if b.Peer() != "s-hi" {
		t.Fatalf("fallback selection bound %s, want the QoS-best s-hi", b.Peer())
	}
}

func TestProactiveRebindOnSuspicion(t *testing.T) {
	w := newWorld(t)
	hi := w.node("s-hi")
	lo := w.node("s-lo")
	// Nothing calls s-hi before it is suspected, so every request it
	// serves is one the binding sent to a suspect.
	var hiServed atomic.Int64
	if err := hi.Serve(bpDesc(0.95), func(p []byte) ([]byte, error) {
		hiServed.Add(1)
		return append([]byte("hi:"), p...), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := lo.Serve(bpDesc(0.90), echoHandler("lo:")); err != nil {
		t.Fatal(err)
	}

	clock := simtime.NewVirtual(time.Unix(0, 0))
	m := testMonitor(clock)
	con := w.healthNode("consumer-1", m, 0)

	b, err := con.Bind(bpSpec(), BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck
	if b.Peer() != "s-hi" {
		t.Fatalf("bound %s, want s-hi", b.Peer())
	}

	// s-hi goes silent past the fixed-timeout fallback: the next request
	// must rebind proactively — before sending anything to s-hi — and the
	// supplier node itself is still up, so only the detector drives this.
	m.Heartbeat("s-hi")
	clock.Advance(300 * time.Millisecond)
	out, err := b.Request([]byte("x"))
	if err != nil {
		t.Fatalf("request after proactive rebind: %v", err)
	}
	if string(out) != "lo:x" {
		t.Fatalf("reply %q: request was not served by the rebound supplier", out)
	}
	if b.Peer() != "s-lo" {
		t.Fatalf("peer %s after suspicion, want s-lo", b.Peer())
	}

	if n := hiServed.Load(); n != 0 {
		t.Fatalf("s-hi served %d requests after it was suspected", n)
	}
	if n := b.Rebinds.Load(); n != 1 {
		t.Fatalf("rebinds = %d, want the one suspicion rebind", n)
	}
}

func TestNodeAdmissionControlSheds(t *testing.T) {
	w := newWorld(t)
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	sup := w.healthNode("s-only", nil, 1)
	err := sup.Serve(bpDesc(0.9), func(p []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	con := w.node("consumer-1")
	b, err := con.Bind(bpSpec(), BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck

	done := make(chan error, 1)
	go func() {
		_, err := b.RequestStatic([]byte("a"))
		done <- err
	}()
	<-entered

	// Admission bound is 1 and it is taken: the second request is shed with
	// a retryable rejection, not queued and not executed.
	_, err = b.RequestStatic([]byte("b"))
	if !endpoint.IsShed(err) {
		t.Fatalf("err = %v, want a shed rejection", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked request failed: %v", err)
	}
}

func TestNodeHealthAccessors(t *testing.T) {
	w := newWorld(t)
	m := testMonitor(simtime.NewVirtual(time.Unix(0, 0)))
	n := w.healthNode("n1", m, 0)
	if n.Health() != m {
		t.Fatal("Health() accessor lost the monitor")
	}
	if n.Registry() == discovery.Resolver(w.registry) {
		t.Fatal("registry not wrapped by the health watcher")
	}
	plain := w.node("n2")
	if plain.Health() != nil {
		t.Fatal("nil-health node reports a monitor")
	}
	if plain.Registry() != discovery.Resolver(w.registry) {
		t.Fatal("nil-health node should keep the raw registry")
	}
}

// countingRegistry wraps a Resolver and counts wire lookups.
type countingRegistry struct {
	discovery.Resolver
	lookups atomic.Int64
}

func (c *countingRegistry) Lookup(q *svcdesc.Query) ([]*svcdesc.Description, error) {
	c.lookups.Add(1)
	return c.Resolver.Lookup(q)
}

func TestSuspicionInvalidatesLookupCache(t *testing.T) {
	// A consumer resolving through a long-TTL lookup cache must not serve a
	// suspected peer out of that cache: the suspicion rebind path
	// invalidates the provider, so the re-match goes back to the wire.
	w := newWorld(t)
	hi := w.node("s-hi")
	lo := w.node("s-lo")
	if err := hi.Serve(bpDesc(0.95), echoHandler("hi:")); err != nil {
		t.Fatal(err)
	}
	if err := lo.Serve(bpDesc(0.90), echoHandler("lo:")); err != nil {
		t.Fatal(err)
	}

	clock := simtime.NewVirtual(time.Unix(0, 0))
	m := testMonitor(clock)
	counting := &countingRegistry{Resolver: w.registry}
	cached := discovery.NewCached(counting, discovery.CacheOptions{TTL: time.Hour})
	con, err := NewNode(Config{
		Name:      "consumer-1",
		Transport: transport.NewMem(w.fabric),
		Registry:  cached,
		Health:    m,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = con.Close() })

	b, err := con.Bind(bpSpec(), BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck
	if b.Peer() != "s-hi" {
		t.Fatalf("bound %s, want s-hi", b.Peer())
	}
	after := counting.lookups.Load()
	if after == 0 {
		t.Fatal("bind never reached the wire")
	}

	// Silence past the detector's fallback: the next request suspects s-hi
	// and rebinds. With an hour of cache TTL the re-match could only see
	// fresh providers if the suspicion invalidated the cached result.
	m.Heartbeat("s-hi")
	clock.Advance(300 * time.Millisecond)
	out, err := b.Request([]byte("x"))
	if err != nil {
		t.Fatalf("request after proactive rebind: %v", err)
	}
	if string(out) != "lo:x" || b.Peer() != "s-lo" {
		t.Fatalf("reply %q peer %s: rebind did not land on s-lo", out, b.Peer())
	}
	if got := counting.lookups.Load(); got != after+1 {
		t.Fatalf("wire lookups = %d after rebind, want %d: the suspected peer was served from cache", got, after+1)
	}
}
