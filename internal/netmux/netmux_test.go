package netmux

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ndsm/internal/netsim"
)

func pairNet(t *testing.T) *netsim.Network {
	t.Helper()
	net := netsim.New(netsim.Config{Range: 100, Unlimited: true})
	t.Cleanup(net.Close)
	for _, id := range []netsim.NodeID{"a", "b"} {
		if err := net.AddNode(id, netsim.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

func recvOne(t *testing.T, ch <-chan netsim.Packet) netsim.Packet {
	t.Helper()
	select {
	case pkt := <-ch:
		return pkt
	case <-time.After(5 * time.Second):
		t.Fatal("no packet")
		return netsim.Packet{}
	}
}

func TestDispatchByProtocol(t *testing.T) {
	net := pairNet(t)
	m, err := New(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	chA := m.Channel(0xAA)
	chB := m.Channel(0xBB)
	if err := net.Send("a", "b", []byte{0xAA, 1}); err != nil {
		t.Fatal(err)
	}
	if err := net.Send("a", "b", []byte{0xBB, 2}); err != nil {
		t.Fatal(err)
	}
	pa := recvOne(t, chA)
	if pa.Data[0] != 0xAA || pa.Data[1] != 1 {
		t.Fatalf("chan A got %v", pa.Data)
	}
	pb := recvOne(t, chB)
	if pb.Data[0] != 0xBB || pb.Data[1] != 2 {
		t.Fatalf("chan B got %v", pb.Data)
	}
}

func TestUnknownProtocolDropped(t *testing.T) {
	net := pairNet(t)
	m, err := New(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := net.Send("a", "b", []byte{0xEE, 9}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for drops(net, "b", 0xEE) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unknown-protocol packet not counted dropped")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEmptyPacketIgnored(t *testing.T) {
	net := pairNet(t)
	m, err := New(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := net.Send("a", "b", nil); err != nil {
		t.Fatal(err)
	}
	// Nothing to assert except no panic and no dispatch; give the loop a
	// moment.
	time.Sleep(5 * time.Millisecond)
}

func TestSendBroadcastHelpers(t *testing.T) {
	net := pairNet(t)
	ma, err := New(net, "a")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ma.Close)
	mb, err := New(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mb.Close)

	ch := mb.Channel(0x01)
	if err := ma.Send("b", []byte{0x01, 42}); err != nil {
		t.Fatal(err)
	}
	if pkt := recvOne(t, ch); pkt.Data[1] != 42 {
		t.Fatalf("got %v", pkt.Data)
	}
	n, err := ma.Broadcast([]byte{0x01, 43})
	if err != nil || n != 1 {
		t.Fatalf("Broadcast = %d, %v", n, err)
	}
	if pkt := recvOne(t, ch); pkt.Data[1] != 43 {
		t.Fatalf("got %v", pkt.Data)
	}
	if ma.ID() != "a" || ma.Network() != net {
		t.Fatal("accessors wrong")
	}
}

func TestMuxUnknownNode(t *testing.T) {
	net := pairNet(t)
	if _, err := New(net, "ghost"); err == nil {
		t.Fatal("mux for unknown node created")
	}
}

func TestCloseIdempotent(t *testing.T) {
	net := pairNet(t)
	m, err := New(net, "a")
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close()
}

// TestChannelOverflowCounted overflows b's channel while a runs a mux of its
// own: the drops land in b's registry and a's stays at zero.
func TestChannelOverflowCounted(t *testing.T) {
	net := pairNet(t)
	for _, id := range []netsim.NodeID{"a", "b"} {
		m, err := New(net, id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		_ = m.Channel(0x07) // registered but never drained
	}
	// Keep sending until the mux-level drop counter moves: the raw netsim
	// inbox can also overflow while the mux loop lags, so we pace sends and
	// tolerate inbox-full errors.
	deadline := time.Now().Add(10 * time.Second)
	for drops(net, "b", 0x07) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("overflow never counted")
		}
		for i := 0; i < channelSize; i++ {
			if err := net.Send("a", "b", []byte{0x07}); err != nil && !errors.Is(err, netsim.ErrInboxFull) {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Millisecond)
	}
	if got := drops(net, "a", 0x07); got != 0 {
		t.Fatalf("a's registry counts %d of b's drops", got)
	}
}

// drops reads how many packets node id's mux dropped for proto.
func drops(net *netsim.Network, id netsim.NodeID, proto byte) int64 {
	return net.Metrics(id).Counter(fmt.Sprintf("netmux.dropped.%d", proto)).Value()
}
