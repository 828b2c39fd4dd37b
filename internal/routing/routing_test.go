package routing

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ndsm/internal/netsim"
)

// lineNet builds a 5-node line a-b-c-d-e with 10m spacing and 12m range, so
// each node only reaches its immediate neighbours.
func lineNet(t *testing.T) (*netsim.Network, []netsim.NodeID) {
	t.Helper()
	net := netsim.New(netsim.Config{Range: 12, Unlimited: true})
	t.Cleanup(net.Close)
	ids := []netsim.NodeID{"a", "b", "c", "d", "e"}
	for i, id := range ids {
		if err := net.AddNode(id, netsim.Position{X: float64(i) * 10}); err != nil {
			t.Fatal(err)
		}
	}
	return net, ids
}

func newMesh(t *testing.T, net *netsim.Network, factory func() Strategy) *Mesh {
	t.Helper()
	m, err := NewMesh(net, factory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func recvOne(t *testing.T, r *Router) netsim.Packet {
	t.Helper()
	ch, err := r.Recv(r.ID())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-ch:
		return pkt
	case <-time.After(10 * time.Second):
		t.Fatal("no packet delivered")
		return netsim.Packet{}
	}
}

func expectNone(t *testing.T, r *Router) {
	t.Helper()
	ch, err := r.Recv(r.ID())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-ch:
		t.Fatalf("unexpected packet: %+v", pkt)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestPacketEncodeDecode(t *testing.T) {
	p := &packet{ptype: typeData, origin: "alpha", dest: "omega", seq: 77, ttl: 9, payload: []byte("body")}
	got, err := decodePacket(p.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ptype != p.ptype || got.origin != p.origin || got.dest != p.dest ||
		got.seq != p.seq || got.ttl != p.ttl || string(got.payload) != "body" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestPacketDecodeGarbage(t *testing.T) {
	if _, err := decodePacket([]byte{1, 2, 3}); err == nil {
		t.Fatal("short garbage accepted")
	}
	if _, err := decodePacket([]byte("definitely not a routed packet")); err == nil {
		t.Fatal("wrong magic accepted")
	}
}

// Property: packet encode/decode round-trips.
func TestPacketRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	f := func() bool {
		randID := func() netsim.NodeID {
			b := make([]rune, r.Intn(10))
			for i := range b {
				b[i] = rune('a' + r.Intn(26))
			}
			return netsim.NodeID(b)
		}
		p := &packet{
			ptype:  byte(1 + r.Intn(2)),
			origin: randID(),
			dest:   randID(),
			seq:    r.Uint32(),
			ttl:    uint8(r.Intn(256)),
		}
		if n := r.Intn(32); n > 0 {
			p.payload = make([]byte, n)
			r.Read(p.payload) //nolint:errcheck
		}
		got, err := decodePacket(p.encode())
		if err != nil {
			return false
		}
		return got.origin == p.origin && got.dest == p.dest && got.seq == p.seq &&
			got.ttl == p.ttl && string(got.payload) == string(p.payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFloodingEndToEnd(t *testing.T) {
	net, ids := lineNet(t)
	m := newMesh(t, net, func() Strategy { return Flooding{} })
	src, dst := m.Router(ids[0]), m.Router(ids[4])
	if err := src.Send("a", "e", []byte("flood-hello")); err != nil {
		t.Fatal(err)
	}
	pkt := recvOne(t, dst)
	if pkt.From != "a" || string(pkt.Data) != "flood-hello" {
		t.Fatalf("bad delivery: %+v", pkt)
	}
}

func TestFloodingNoDuplicateDelivery(t *testing.T) {
	// Dense mesh: everyone hears everyone; dedup must keep delivery unique.
	net := netsim.New(netsim.Config{Range: 100, Unlimited: true})
	t.Cleanup(net.Close)
	for _, id := range []netsim.NodeID{"a", "b", "c", "d"} {
		if err := net.AddNode(id, netsim.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	m := newMesh(t, net, func() Strategy { return Flooding{} })
	if err := m.Router("a").Send("a", "d", []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, m.Router("d"))
	expectNone(t, m.Router("d"))
}

func TestFloodingTTLBounds(t *testing.T) {
	net, ids := lineNet(t)
	m := newMesh(t, net, func() Strategy { return Flooding{} })
	src := m.Router(ids[0])
	src.ttl = 2 // a broadcasts (ttl 2), b forwards (ttl 1), c drops
	if err := src.Send("a", "e", []byte("short-leash")); err != nil {
		t.Fatal(err)
	}
	expectNone(t, m.Router(ids[4]))
}

func TestDVConvergesAndRoutes(t *testing.T) {
	net, _ := lineNet(t)
	m := newMesh(t, net, func() Strategy { return NewDistanceVector(HopCost) })
	if !m.Converge(6) {
		t.Fatal("mesh did not quiesce")
	}
	dv := m.Router("a").strategy.(*DistanceVector)
	routes := dv.Routes()
	if cost, ok := routes["e"]; !ok || cost != 4 {
		t.Fatalf("a's route to e = %v (ok=%v), want cost 4", cost, ok)
	}
	sent := net.Counters()["sent"]
	if err := m.Router("a").Send("a", "e", []byte("dv-hello")); err != nil {
		t.Fatal(err)
	}
	pkt := recvOne(t, m.Router("e"))
	if pkt.From != "a" || string(pkt.Data) != "dv-hello" {
		t.Fatalf("bad delivery: %+v", pkt)
	}
	// The first hop, then exactly the 3 intermediate nodes forwarding once
	// each.
	if hops := net.Counters()["sent"] - sent; hops != 4 {
		t.Fatalf("hops = %d, want 4", hops)
	}
}

func TestDVNoRouteBeforeConvergence(t *testing.T) {
	net, _ := lineNet(t)
	m := newMesh(t, net, func() Strategy { return NewDistanceVector(HopCost) })
	err := m.Router("a").Send("a", "e", []byte("x"))
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestDVRepairAfterNodeDeath(t *testing.T) {
	// Grid so an alternate path exists when a relay dies.
	net := netsim.New(netsim.Config{Range: 12, Unlimited: true})
	t.Cleanup(net.Close)
	// Square: a(0,0) b(10,0) c(0,10) d(10,10); a-d via b or c.
	coords := map[netsim.NodeID]netsim.Position{
		"a": {X: 0, Y: 0}, "b": {X: 10, Y: 0}, "c": {X: 0, Y: 10}, "d": {X: 10, Y: 10},
	}
	for id, pos := range coords {
		if err := net.AddNode(id, pos); err != nil {
			t.Fatal(err)
		}
	}
	m := newMesh(t, net, func() Strategy { return NewDistanceVector(HopCost) })
	m.Converge(5)
	if err := m.Router("a").Send("a", "d", []byte("1")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, m.Router("d"))

	// Kill whichever relay a is using; the stale-route check plus fresh
	// advertisements must repair via the other corner.
	dv := m.Router("a").strategy.(*DistanceVector)
	dv.mu.Lock()
	relay := dv.routes["d"].nextHop
	dv.mu.Unlock()
	if err := net.Kill(relay); err != nil {
		t.Fatal(err)
	}
	m.Converge(5)
	if err := m.Router("a").Send("a", "d", []byte("2")); err != nil {
		t.Fatalf("send after repair: %v", err)
	}
	pkt := recvOne(t, m.Router("d"))
	if string(pkt.Data) != "2" {
		t.Fatalf("bad packet: %+v", pkt)
	}
}

func TestEnergyAwareAvoidsDrainedRelay(t *testing.T) {
	// Two parallel relays between src and dst; the energy-aware metric must
	// route through the healthy one. Each mesh gets its own network — two
	// meshes on one substrate would steal each other's packets.
	mkNet := func() *netsim.Network {
		net := netsim.New(netsim.Config{Range: 12, Unlimited: true})
		t.Cleanup(net.Close)
		add := func(id netsim.NodeID, pos netsim.Position, energy float64) {
			if err := net.AddNodeEnergy(id, pos, energy); err != nil {
				t.Fatal(err)
			}
		}
		add("src", netsim.Position{X: 0, Y: 5}, 2)
		add("weak", netsim.Position{X: 10, Y: 0}, 0.001) // nearly drained
		add("strong", netsim.Position{X: 10, Y: 10}, 2)
		add("dst", netsim.Position{X: 20, Y: 5}, 2)
		return net
	}

	m := newMesh(t, mkNet(), func() Strategy {
		return NewDistanceVector(EnergyCost(128, 0.05))
	})
	m.Converge(5)
	dv := m.Router("src").strategy.(*DistanceVector)
	dv.mu.Lock()
	hop := dv.routes["dst"].nextHop
	dv.mu.Unlock()
	if hop != "strong" {
		t.Fatalf("energy-aware route via %s, want strong", hop)
	}
	// Hop-count metric is indifferent; both relays cost 2 hops — sanity
	// check that energy metric actually changed the decision, not topology.
	m2 := newMesh(t, mkNet(), func() Strategy { return NewDistanceVector(HopCost) })
	m2.Converge(5)
	if err := m2.Router("src").Send("src", "dst", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestGeographicForwarding(t *testing.T) {
	net, ids := lineNet(t)
	m := newMesh(t, net, func() Strategy { return Geographic{} })
	// No convergence needed at all.
	if err := m.Router("a").Send("a", "e", []byte("geo")); err != nil {
		t.Fatal(err)
	}
	pkt := recvOne(t, m.Router(ids[4]))
	if string(pkt.Data) != "geo" {
		t.Fatalf("bad packet: %+v", pkt)
	}
}

func TestGeographicLocalMinimum(t *testing.T) {
	// dst is across a void: a's only neighbour is behind it, so greedy
	// forwarding must fail rather than loop.
	net := netsim.New(netsim.Config{Range: 12, Unlimited: true})
	t.Cleanup(net.Close)
	for id, pos := range map[netsim.NodeID]netsim.Position{
		"a":      {X: 0, Y: 0},
		"behind": {X: -10, Y: 0},
		"dst":    {X: 100, Y: 0},
	} {
		if err := net.AddNode(id, pos); err != nil {
			t.Fatal(err)
		}
	}
	m := newMesh(t, net, func() Strategy { return Geographic{} })
	if err := m.Router("a").Send("a", "dst", []byte("x")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	net, _ := lineNet(t)
	m := newMesh(t, net, func() Strategy { return Flooding{} })
	if err := m.Router("a").Send("a", "a", []byte("self")); err != nil {
		t.Fatal(err)
	}
	pkt := recvOne(t, m.Router("a"))
	if pkt.From != "a" || string(pkt.Data) != "self" {
		t.Fatalf("loopback: %+v", pkt)
	}
}

func TestSendAsWrongNode(t *testing.T) {
	net, _ := lineNet(t)
	m := newMesh(t, net, func() Strategy { return Flooding{} })
	if err := m.Router("a").Send("b", "c", nil); err == nil {
		t.Fatal("send as foreign node accepted")
	}
	if _, err := m.Router("a").Recv("b"); err == nil {
		t.Fatal("recv for foreign node accepted")
	}
}

func TestRouterClose(t *testing.T) {
	net, _ := lineNet(t)
	r, err := New(net, "a", Flooding{})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if err := r.Send("a", "b", nil); !errors.Is(err, ErrRouterClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

func TestNewUnknownNode(t *testing.T) {
	net := netsim.New(netsim.Config{})
	t.Cleanup(net.Close)
	if _, err := New(net, "ghost", Flooding{}); err == nil {
		t.Fatal("router for unknown node created")
	}
}

func TestDedupWindowEviction(t *testing.T) {
	net, _ := lineNet(t)
	r, err := New(net, "a", Flooding{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	for seq := uint32(1); seq <= dedupWindow+10; seq++ {
		r.markSeen("x", seq)
	}
	if r.hasSeen("x", 1) {
		t.Fatal("oldest entry not evicted")
	}
	if !r.hasSeen("x", dedupWindow+10) {
		t.Fatal("newest entry missing")
	}
	r.markSeen("x", dedupWindow+10) // re-mark is a no-op
	if len(r.seen["x"]) > dedupWindow {
		t.Fatalf("window exceeded: %d", len(r.seen["x"]))
	}
}

func TestDVEncodingRoundTrip(t *testing.T) {
	in := []dvEntry{
		{dest: "node-1", cost: 3.25, seq: 9},
		{dest: "", cost: math.Inf(1), seq: 0},
		{dest: "x", cost: 0, seq: 4294967295},
	}
	out, ok := decodeDV(encodeDV(in))
	if !ok || len(out) != len(in) {
		t.Fatalf("decode failed: %v %d", ok, len(out))
	}
	for i := range in {
		if out[i].dest != in[i].dest || out[i].seq != in[i].seq {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
		if out[i].cost != in[i].cost && !(math.IsInf(out[i].cost, 1) && math.IsInf(in[i].cost, 1)) {
			t.Fatalf("entry %d cost mismatch", i)
		}
	}
	if _, ok := decodeDV([]byte{0xFF}); ok {
		t.Fatal("garbage decoded")
	}
}

func TestMeshRouterAccessors(t *testing.T) {
	net, _ := lineNet(t)
	m := newMesh(t, net, func() Strategy { return Flooding{} })
	if m.Router("a") == nil || m.Router("ghost") != nil {
		t.Fatal("Router accessor wrong")
	}
	if id := m.Router("a").ID(); id != "a" {
		t.Fatalf("Router(a).ID() = %s", id)
	}
}

func TestFloodingCostExceedsDVCost(t *testing.T) {
	// The shape behind experiment E5: on a 2-D field, flooding transmits far
	// more than DV unicast for the same workload (every node rebroadcasts vs
	// one transmission per path hop).
	mkNet := func() (*netsim.Network, func()) {
		net := netsim.New(netsim.Config{Range: 12, Unlimited: true})
		if _, err := netsim.GridField(net, "g", 16, 10); err != nil {
			t.Fatal(err)
		}
		return net, net.Close
	}

	netF, closeF := mkNet()
	defer closeF()
	mf, err := NewMesh(netF, func() Strategy { return Flooding{} })
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if err := mf.Router("g0").Send("g0", "g15", []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, mf.Router("g15"))
	mf.Settle(5 * time.Second)
	floodSent := netF.Counters()["sent"]

	netD, closeD := mkNet()
	defer closeD()
	md, err := NewMesh(netD, func() Strategy { return NewDistanceVector(HopCost) })
	if err != nil {
		t.Fatal(err)
	}
	defer md.Close()
	md.Converge(8)
	before := netD.Counters()["sent"]
	if err := md.Router("g0").Send("g0", "g15", []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, md.Router("g15"))
	md.Settle(5 * time.Second)
	dvSent := netD.Counters()["sent"] - before

	if dvSent != 6 { // corner-to-corner shortest path on a 4x4 grid
		t.Fatalf("dv data transmissions = %d, want 6", dvSent)
	}
	if floodSent < 2*dvSent {
		t.Fatalf("flooding (%d) should cost well over dv (%d)", floodSent, dvSent)
	}
}

// tableStrategy routes by a fixed next-hop table and advertises nothing.
type tableStrategy map[netsim.NodeID]netsim.NodeID

func (tableStrategy) Name() string       { return "table" }
func (tableStrategy) UsesFlooding() bool { return false }
func (s tableStrategy) NextHop(_ *Router, dest netsim.NodeID) (netsim.NodeID, bool) {
	hop, ok := s[dest]
	return hop, ok
}
func (tableStrategy) Advertisement(*Router) []byte                       { return nil }
func (tableStrategy) HandleAdvertisement(*Router, netsim.NodeID, []byte) {}

// TestDropsCountedByReason drives each way a router gives up on a packet at
// the middle node b of a line a-b-c, and reads the counts from b's registry:
// one drop of each reason there, none at a or c.
func TestDropsCountedByReason(t *testing.T) {
	net := netsim.New(netsim.Config{Range: 12, Unlimited: true})
	t.Cleanup(net.Close)
	for i, id := range []netsim.NodeID{"a", "b", "c"} {
		if err := net.AddNode(id, netsim.Position{X: float64(i) * 10}); err != nil {
			t.Fatal(err)
		}
	}
	// b relays to c, and towards "gone" through a node that does not exist,
	// so that relay's send fails.
	m, err := NewMesh(net, func() Strategy { return tableStrategy{"c": "c", "gone": "ghost"} })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	data := func(dest netsim.NodeID, ttl uint8) []byte {
		return (&packet{ptype: typeData, origin: "a", dest: dest, seq: 1, ttl: ttl}).encode()
	}
	for _, raw := range [][]byte{
		{0xFF, 1, 2},    // decode
		data("c", 1),    // ttl: spent on arrival at b
		data("z", 5),    // no_route: b's table has no "z"
		data("gone", 5), // send: the relay hop does not exist
	} {
		if err := net.Send("a", "b", raw); err != nil {
			t.Fatal(err)
		}
	}
	// queue_full: nobody drains b's delivery queue.
	for i := 0; i <= outboxSize; i++ {
		if err := m.Router("b").Send("b", "b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	reasons := []string{"decode", "ttl", "no_route", "send", "queue_full"}
	dropped := func(id netsim.NodeID, reason string) int64 {
		return net.Metrics(id).Counter("routing.dropped." + reason).Value()
	}
	if !m.Settle(5 * time.Second) {
		t.Fatal("mesh did not settle")
	}
	for _, reason := range reasons {
		if got := dropped("b", reason); got != 1 {
			t.Errorf("b dropped %d packets for %s, want 1", got, reason)
		}
		for _, id := range []netsim.NodeID{"a", "c"} {
			if got := dropped(id, reason); got != 0 {
				t.Errorf("%s counts %d %s drops of b's", id, got, reason)
			}
		}
	}
	expectNone(t, m.Router("c"))
}

// Settle waits for a packet still on a delayed link: once it reports the
// mesh quiet, the packet has been handled at its destination.
func TestSettleWaitsForDelayedDelivery(t *testing.T) {
	net := netsim.New(netsim.Config{Range: 12, Unlimited: true, Latency: 20 * time.Millisecond})
	t.Cleanup(net.Close)
	for i, id := range []netsim.NodeID{"a", "b"} {
		if err := net.AddNode(id, netsim.Position{X: float64(i) * 10}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewMesh(net, func() Strategy { return tableStrategy{"b": "b"} })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := m.Router("a").Send("a", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !m.Settle(5 * time.Second) {
		t.Fatal("mesh did not settle")
	}
	if got := m.Router("b").Handled(); got != 1 {
		t.Fatalf("b handled %d packets once the mesh settled, want 1", got)
	}
}
