package netsim

import (
	"errors"
	"math"
	"testing"
	"time"

	"ndsm/internal/simtime"
)

func testNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n := New(cfg)
	t.Cleanup(n.Close)
	return n
}

func mustAdd(t *testing.T, n *Network, id NodeID, pos Position) {
	t.Helper()
	if err := n.AddNode(id, pos); err != nil {
		t.Fatalf("AddNode(%s): %v", id, err)
	}
}

func TestPositionDistance(t *testing.T) {
	p := Position{0, 0}
	q := Position{3, 4}
	if got := p.Distance(q); got != 5 {
		t.Fatalf("Distance = %v, want 5", got)
	}
	if got := q.Distance(q); got != 0 {
		t.Fatalf("self distance = %v, want 0", got)
	}
}

func TestRadioEnergyModel(t *testing.T) {
	// 1 byte at distance 0: only electronics cost, both directions equal.
	if tx, rx := TxEnergy(1, 0), RxEnergy(1); tx != rx {
		t.Fatalf("TxEnergy(1,0)=%v != RxEnergy(1)=%v", tx, rx)
	}
	// Amplifier term grows with d².
	e10 := TxEnergy(100, 10)
	e20 := TxEnergy(100, 20)
	ampGrowth := (e20 - RxEnergy(100)) / (e10 - RxEnergy(100))
	if math.Abs(ampGrowth-4) > 1e-9 {
		t.Fatalf("amplifier growth = %v, want 4 (d² law)", ampGrowth)
	}
}

func TestAddNodeRejectsDuplicate(t *testing.T) {
	n := testNet(t, Config{})
	mustAdd(t, n, "a", Position{0, 0})
	if err := n.AddNode("a", Position{1, 1}); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("duplicate add: err = %v", err)
	}
	if got := n.Nodes(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Nodes = %v", got)
	}
}

func TestSendDelivers(t *testing.T) {
	n := testNet(t, Config{Range: 10})
	mustAdd(t, n, "a", Position{0, 0})
	mustAdd(t, n, "b", Position{5, 0})
	if err := n.Send("a", "b", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	rx, err := n.Recv("b")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-rx:
		if pkt.From != "a" || pkt.To != "b" || string(pkt.Data) != "hi" {
			t.Fatalf("bad packet: %+v", pkt)
		}
	default:
		t.Fatal("no packet delivered")
	}
	c := n.Counters()
	if c["sent"] != 1 || c["delivered"] != 1 {
		t.Fatalf("counters = %v", c)
	}
}

func TestSendDataIsolated(t *testing.T) {
	n := testNet(t, Config{Range: 10})
	mustAdd(t, n, "a", Position{0, 0})
	mustAdd(t, n, "b", Position{1, 0})
	data := []byte("mutable")
	if err := n.Send("a", "b", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	rx, _ := n.Recv("b")
	pkt := <-rx
	if string(pkt.Data) != "mutable" {
		t.Fatalf("delivered data shares caller buffer: %q", pkt.Data)
	}
}

func TestSendOutOfRange(t *testing.T) {
	n := testNet(t, Config{Range: 10})
	mustAdd(t, n, "a", Position{0, 0})
	mustAdd(t, n, "b", Position{50, 0})
	if err := n.Send("a", "b", []byte("x")); !errors.Is(err, ErrNotNeighbor) {
		t.Fatalf("err = %v, want ErrNotNeighbor", err)
	}
}

func TestSendUnknownAndDead(t *testing.T) {
	n := testNet(t, Config{Range: 10})
	mustAdd(t, n, "a", Position{0, 0})
	mustAdd(t, n, "b", Position{1, 0})
	if err := n.Send("zz", "b", nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown src: %v", err)
	}
	if err := n.Send("a", "zz", nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown dst: %v", err)
	}
	if err := n.Kill("b"); err != nil {
		t.Fatal(err)
	}
	if err := n.Send("a", "b", nil); !errors.Is(err, ErrNodeDead) {
		t.Fatalf("dead dst: %v", err)
	}
	if err := n.Send("b", "a", nil); !errors.Is(err, ErrNodeDead) {
		t.Fatalf("dead src: %v", err)
	}
	if err := n.Revive("b"); err != nil {
		t.Fatal(err)
	}
	if err := n.Send("a", "b", nil); err != nil {
		t.Fatalf("after revive: %v", err)
	}
}

func TestLossRate(t *testing.T) {
	n := testNet(t, Config{Range: 10, Unlimited: true})
	n.SetLossRate(1.0)
	mustAdd(t, n, "a", Position{0, 0})
	mustAdd(t, n, "b", Position{1, 0})
	for i := 0; i < 5; i++ {
		if err := n.Send("a", "b", []byte("x")); !errors.Is(err, ErrPacketLost) {
			t.Fatalf("err = %v, want ErrPacketLost", err)
		}
	}
	if c := n.Counters(); c["lost"] != 5 || c["delivered"] != 0 {
		t.Fatalf("counters = %v", c)
	}
}

// TestCountsLandAtTheirNode: each node's registry holds its own traffic. A
// packet lost on its way to b counts as b's loss and not a's, a
// transmission as its sender's, and Counters is the sum over the nodes.
func TestCountsLandAtTheirNode(t *testing.T) {
	n := testNet(t, Config{Range: 10, Unlimited: true})
	mustAdd(t, n, "a", Position{0, 0})
	mustAdd(t, n, "b", Position{1, 0})
	n.SetLossRate(1.0)
	if err := n.Send("a", "b", []byte("x")); !errors.Is(err, ErrPacketLost) {
		t.Fatalf("err = %v, want ErrPacketLost", err)
	}
	if _, err := n.Broadcast("a", []byte("y")); err != nil {
		t.Fatal(err)
	}
	a, b := n.Metrics("a").Snapshot(), n.Metrics("b").Snapshot()
	if b.Counters["netsim.lost"] != 2 || a.Counters["netsim.lost"] != 0 {
		t.Fatalf("lost: a %d, b %d; want 0 and 2", a.Counters["netsim.lost"], b.Counters["netsim.lost"])
	}
	if a.Counters["netsim.sent"] != 2 || b.Counters["netsim.sent"] != 0 || a.Counters["netsim.broadcasts"] != 1 {
		t.Fatalf("sent: a %v, b %v", a.Counters, b.Counters)
	}
	if a.Gauges["netsim.energy_consumed_j"] <= 0 || b.Gauges["netsim.energy_consumed_j"] != 0 {
		t.Fatalf("energy: a %v, b %v", a.Gauges, b.Gauges)
	}
	if c := n.Counters(); c["lost"] != 2 || c["sent"] != 2 || c["bytes"] != 2 {
		t.Fatalf("network counters = %v", c)
	}
	if n.Metrics("nobody") != nil {
		t.Fatal("an unknown node should have no registry")
	}
}

func TestLossRateStatistical(t *testing.T) {
	n := testNet(t, Config{Range: 10, Unlimited: true, Seed: 42})
	n.SetLossRate(0.3)
	mustAdd(t, n, "a", Position{0, 0})
	mustAdd(t, n, "b", Position{1, 0})
	rx, _ := n.Recv("b")
	const total = 2000
	lost := 0
	for i := 0; i < total; i++ {
		if err := n.Send("a", "b", []byte("x")); errors.Is(err, ErrPacketLost) {
			lost++
		}
		// Drain to keep the inbox from filling.
		select {
		case <-rx:
		default:
		}
	}
	rate := float64(lost) / total
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("observed loss rate %.3f, want ≈0.30", rate)
	}
}

func TestEnergyAccounting(t *testing.T) {
	n := testNet(t, Config{Range: 100})
	mustAdd(t, n, "a", Position{0, 0})
	mustAdd(t, n, "b", Position{10, 0})
	before, _ := n.Energy("a")
	if err := n.Send("a", "b", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	afterA, _ := n.Energy("a")
	wantTx := TxEnergy(100, 10)
	if math.Abs((before-afterA)-wantTx) > 1e-15 {
		t.Fatalf("sender spent %v, want %v", before-afterA, wantTx)
	}
	consumedB, _ := n.Consumed("b")
	if math.Abs(consumedB-RxEnergy(100)) > 1e-15 {
		t.Fatalf("receiver consumed %v, want RxEnergy", consumedB)
	}
	if n.TotalConsumed() <= 0 {
		t.Fatal("TotalConsumed should be positive")
	}
}

func TestEnergyExhaustionKillsNode(t *testing.T) {
	n := testNet(t, Config{Range: 100})
	// Tiny budget: one 1000-byte send at 50m drains it.
	if err := n.AddNodeEnergy("a", Position{0, 0}, 1e-9); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, n, "b", Position{50, 0})
	err := n.Send("a", "b", make([]byte, 1000))
	// The send itself may succeed or fail depending on ordering; what matters
	// is the node dies.
	_ = err
	if n.Alive("a") {
		t.Fatal("node with exhausted energy still alive")
	}
	e, _ := n.Energy("a")
	if e != 0 {
		t.Fatalf("energy = %v, want 0", e)
	}
	if err := n.Revive("a"); err != nil {
		t.Fatal(err)
	}
	if n.Alive("a") {
		t.Fatal("revive should not resurrect an energy-exhausted node")
	}
}

func TestUnlimitedEnergy(t *testing.T) {
	n := testNet(t, Config{Range: 100, Unlimited: true})
	if err := n.AddNodeEnergy("a", Position{0, 0}, 1e-12); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, n, "b", Position{50, 0})
	for i := 0; i < 10; i++ {
		if err := n.Send("a", "b", make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if !n.Alive("a") {
		t.Fatal("unlimited node died")
	}
	if c, _ := n.Consumed("a"); c <= 0 {
		t.Fatal("consumption should still be tracked")
	}
}

func TestNeighborsAndDensity(t *testing.T) {
	n := testNet(t, Config{Range: 10})
	mustAdd(t, n, "a", Position{0, 0})
	mustAdd(t, n, "b", Position{5, 0})
	mustAdd(t, n, "c", Position{9, 0})
	mustAdd(t, n, "far", Position{100, 100})
	nb, err := n.Neighbors("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(nb) != 2 || nb[0] != "b" || nb[1] != "c" {
		t.Fatalf("Neighbors(a) = %v, want [b c]", nb)
	}
	if got := n.Density("a"); got != 2 {
		t.Fatalf("Density = %d, want 2", got)
	}
	if err := n.Kill("b"); err != nil {
		t.Fatal(err)
	}
	if got := n.Density("a"); got != 1 {
		t.Fatalf("Density after kill = %d, want 1", got)
	}
	if _, err := n.Neighbors("nope"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestIsolateAndRejoin(t *testing.T) {
	n := testNet(t, Config{Range: 100})
	for _, id := range []NodeID{"a", "b", "c"} {
		mustAdd(t, n, id, Position{0, 0})
	}
	n.Isolate("a")
	for _, dst := range []NodeID{"b", "c"} {
		if err := n.Send("a", dst, nil); !errors.Is(err, ErrLinkSevered) {
			t.Fatalf("a -> %s: err = %v, want ErrLinkSevered", dst, err)
		}
		if err := n.Send(dst, "a", nil); !errors.Is(err, ErrLinkSevered) {
			t.Fatalf("%s -> a: err = %v, want ErrLinkSevered", dst, err)
		}
	}
	if err := n.Send("b", "c", nil); err != nil {
		t.Fatalf("link not involving the isolated node: %v", err)
	}
	if got := n.Density("a"); got != 0 {
		t.Fatalf("Density of isolated node = %d, want 0", got)
	}
	if Connected(n) {
		t.Fatal("network with an isolated node reported connected")
	}
	n.Rejoin("a")
	if err := n.Send("a", "b", nil); err != nil {
		t.Fatalf("after Rejoin: %v", err)
	}
	if !Connected(n) {
		t.Fatal("network reported disconnected after Rejoin")
	}
}

func TestBroadcast(t *testing.T) {
	n := testNet(t, Config{Range: 10})
	mustAdd(t, n, "src", Position{0, 0})
	mustAdd(t, n, "n1", Position{3, 0})
	mustAdd(t, n, "n2", Position{0, 3})
	mustAdd(t, n, "far", Position{99, 99})
	delivered, err := n.Broadcast("src", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2", delivered)
	}
	for _, id := range []NodeID{"n1", "n2"} {
		rx, _ := n.Recv(id)
		select {
		case pkt := <-rx:
			if pkt.From != "src" || pkt.To != "" {
				t.Fatalf("bad broadcast packet: %+v", pkt)
			}
		default:
			t.Fatalf("%s did not receive broadcast", id)
		}
	}
	rx, _ := n.Recv("far")
	select {
	case <-rx:
		t.Fatal("out-of-range node received broadcast")
	default:
	}
}

func TestBroadcastFromDead(t *testing.T) {
	n := testNet(t, Config{Range: 10})
	mustAdd(t, n, "a", Position{0, 0})
	if err := n.Kill("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Broadcast("a", nil); !errors.Is(err, ErrNodeDead) {
		t.Fatalf("err = %v", err)
	}
}

func TestInboxOverflow(t *testing.T) {
	n := testNet(t, Config{Range: 10, InboxSize: 2, Unlimited: true})
	mustAdd(t, n, "a", Position{0, 0})
	mustAdd(t, n, "b", Position{1, 0})
	var overflow error
	for i := 0; i < 3; i++ {
		overflow = n.Send("a", "b", []byte("x"))
	}
	if !errors.Is(overflow, ErrInboxFull) {
		t.Fatalf("err = %v, want ErrInboxFull", err(overflow))
	}
	if c := n.Counters(); c["dropped_full"] != 1 {
		t.Fatalf("counters = %v", c)
	}
}

func err(e error) error { return e }

func TestLatencyWithVirtualClock(t *testing.T) {
	clk := simtime.NewVirtual(time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC))
	n := testNet(t, Config{Range: 10, Latency: 100 * time.Millisecond, Clock: clk, Unlimited: true})
	mustAdd(t, n, "a", Position{0, 0})
	mustAdd(t, n, "b", Position{1, 0})
	if e := n.Send("a", "b", []byte("x")); e != nil {
		t.Fatal(e)
	}
	rx, _ := n.Recv("b")
	select {
	case <-rx:
		t.Fatal("packet arrived before latency elapsed")
	default:
	}
	// Wait until the delivery goroutine registers its timer, then advance.
	deadline := time.Now().Add(5 * time.Second)
	for clk.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delivery goroutine never registered timer")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(100 * time.Millisecond)
	select {
	case pkt := <-rx:
		if string(pkt.Data) != "x" {
			t.Fatalf("bad packet: %+v", pkt)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("packet never arrived after advancing clock")
	}
}

func TestCloseStopsDeliveries(t *testing.T) {
	clk := simtime.NewVirtual(time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC))
	n := New(Config{Range: 10, Latency: time.Hour, Clock: clk, Unlimited: true})
	mustAdd(t, n, "a", Position{0, 0})
	mustAdd(t, n, "b", Position{1, 0})
	if e := n.Send("a", "b", []byte("x")); e != nil {
		t.Fatal(e)
	}
	done := make(chan struct{})
	go func() {
		n.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on in-flight delayed delivery")
	}
	if e := n.Send("a", "b", nil); !errors.Is(e, ErrNetworkClosed) {
		t.Fatalf("send after close: %v", e)
	}
	if e := n.AddNode("c", Position{}); !errors.Is(e, ErrNetworkClosed) {
		t.Fatalf("add after close: %v", e)
	}
	n.Close() // idempotent
}

// Close stops the timer of a delivery still in flight, so none is left on
// the clock.
func TestCloseLeavesNoTimer(t *testing.T) {
	clk := simtime.NewVirtual(time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC))
	n := New(Config{Range: 10, Latency: time.Hour, Clock: clk, Unlimited: true})
	mustAdd(t, n, "a", Position{0, 0})
	mustAdd(t, n, "b", Position{1, 0})
	if e := n.Send("a", "b", []byte("x")); e != nil {
		t.Fatal(e)
	}
	n.Close()
	if got := clk.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Close stopped a delayed delivery, want 0", got)
	}
}

func TestMoveNodeAffectsRange(t *testing.T) {
	n := testNet(t, Config{Range: 10})
	mustAdd(t, n, "a", Position{0, 0})
	mustAdd(t, n, "b", Position{50, 0})
	if e := n.Send("a", "b", nil); !errors.Is(e, ErrNotNeighbor) {
		t.Fatalf("before move: %v", e)
	}
	if e := n.MoveNode("b", Position{5, 0}); e != nil {
		t.Fatal(e)
	}
	if e := n.Send("a", "b", nil); e != nil {
		t.Fatalf("after move: %v", e)
	}
	p, e := n.PositionOf("b")
	if e != nil || p != (Position{5, 0}) {
		t.Fatalf("PositionOf = %v, %v", p, e)
	}
	if e := n.MoveNode("zz", Position{}); !errors.Is(e, ErrUnknownNode) {
		t.Fatalf("move unknown: %v", e)
	}
}

func TestGridFieldConnected(t *testing.T) {
	n := testNet(t, Config{Range: 10})
	ids, e := GridField(n, "g", 16, 10)
	if e != nil {
		t.Fatal(e)
	}
	if len(ids) != 16 {
		t.Fatalf("placed %d", len(ids))
	}
	if !Connected(n) {
		t.Fatal("grid with spacing == range should be connected")
	}
}

func TestConnectedTrivial(t *testing.T) {
	n := testNet(t, Config{})
	if !Connected(n) {
		t.Fatal("empty network should be connected")
	}
	mustAdd(t, n, "solo", Position{0, 0})
	if !Connected(n) {
		t.Fatal("single node should be connected")
	}
}

func TestWaypointMovesNodes(t *testing.T) {
	n := testNet(t, Config{Range: 10, Unlimited: true})
	mustAdd(t, n, "m", Position{0, 0})
	w := NewWaypoint(n, 100, 5, 3)
	start, _ := n.PositionOf("m")
	moved := false
	for i := 0; i < 10; i++ {
		w.Step()
		p, _ := n.PositionOf("m")
		if p != start {
			moved = true
		}
		if p.X < 0 || p.X > 100 || p.Y < 0 || p.Y > 100 {
			t.Fatalf("node left field: %+v", p)
		}
	}
	if !moved {
		t.Fatal("waypoint model never moved the node")
	}
}

func TestWaypointStepSize(t *testing.T) {
	n := testNet(t, Config{Range: 10, Unlimited: true})
	mustAdd(t, n, "m", Position{0, 0})
	w := NewWaypoint(n, 1000, 2, 5)
	prev, _ := n.PositionOf("m")
	for i := 0; i < 20; i++ {
		w.Step()
		cur, _ := n.PositionOf("m")
		if d := prev.Distance(cur); d > 2+1e-9 {
			t.Fatalf("step %d moved %v > speed 2", i, d)
		}
		prev = cur
	}
}
