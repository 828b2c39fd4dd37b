package simnet_test

import (
	"testing"
	"time"

	"ndsm/internal/svcdesc"
	"ndsm/simnet"
)

// TestFieldAndRouting smokes the public substrate API end to end: place a
// grid, check connectivity, and deliver a packet across the mesh with the
// flooding strategy.
func TestFieldAndRouting(t *testing.T) {
	net := simnet.New(simnet.Config{Range: 15})
	defer net.Close()

	ids, err := simnet.GridField(net, "n", 9, 10)
	if err != nil {
		t.Fatalf("GridField: %v", err)
	}
	if len(ids) != 9 {
		t.Fatalf("GridField returned %d ids, want 9", len(ids))
	}
	if !simnet.Connected(net) {
		t.Fatal("10m-spaced grid with 15m range should be connected")
	}

	mesh, err := simnet.NewMesh(net, func() simnet.Strategy { return simnet.Flooding{} })
	if err != nil {
		t.Fatalf("NewMesh: %v", err)
	}
	defer mesh.Close()

	src, dst := ids[0], ids[len(ids)-1]
	recv, err := mesh.Router(dst).Recv(dst)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if err := mesh.Router(src).Send(src, dst, []byte("ping")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case pkt := <-recv:
		if string(pkt.Data) != "ping" {
			t.Fatalf("delivered %q, want %q", pkt.Data, "ping")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet not delivered across the mesh")
	}
}

// TestMux smokes the protocol demultiplexer re-export.
func TestMux(t *testing.T) {
	net := simnet.New(simnet.Config{Range: 25})
	defer net.Close()
	for _, id := range []simnet.NodeID{"a", "b"} {
		if err := net.AddNode(id, simnet.Position{}); err != nil {
			t.Fatalf("AddNode(%s): %v", id, err)
		}
	}
	ma, err := simnet.NewMux(net, "a")
	if err != nil {
		t.Fatalf("NewMux(a): %v", err)
	}
	defer ma.Close()
	mb, err := simnet.NewMux(net, "b")
	if err != nil {
		t.Fatalf("NewMux(b): %v", err)
	}
	defer mb.Close()

	ch := mb.Channel(0x7E)
	if err := ma.Send("b", []byte{0x7E, 'h', 'i'}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case pkt := <-ch:
		if string(pkt.Data[1:]) != "hi" {
			t.Fatalf("mux delivered %q", pkt.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("mux did not demultiplex the packet")
	}
}

// TestLocationService smokes the location-service re-export.
func TestLocationService(t *testing.T) {
	ls := simnet.NewLocationService()
	now := time.Date(2003, 6, 1, 12, 0, 0, 0, time.UTC)
	ls.Update("printer-1", svcdesc.Location{X: 3, Y: 4}, "floor-2", now)
	if all := ls.All(); len(all) != 1 || all[0].Logical != "floor-2" {
		t.Fatalf("entries = %+v, want printer-1 on floor-2", all)
	}
	if got := ls.NearestK(svcdesc.Location{}, 1); len(got) != 1 {
		t.Fatalf("NearestK returned %d entries, want 1", len(got))
	}
}
