// Package netmux splits a node's single netsim receive queue into
// per-protocol channels keyed by the first payload byte. Several middleware
// components run on every node at once — the routing agent, the distributed
// discovery agent — and each speaks its own datagram protocol; the mux lets
// them coexist on one radio without consuming each other's packets.
package netmux

import (
	"fmt"
	"sync"

	"ndsm/internal/netsim"
	"ndsm/internal/obs"
)

// channelSize is each protocol channel's buffer depth.
const channelSize = 256

// Mux demultiplexes one node's inbound packets by protocol byte.
type Mux struct {
	net *netsim.Network
	id  netsim.NodeID

	mu     sync.Mutex
	chans  map[byte]chan netsim.Packet
	closed bool

	stop chan struct{}
	done chan struct{}

	// metrics is the node's registry (netsim.Network.Metrics): drops count
	// there under "netmux.dropped.<proto>".
	metrics *obs.Registry
}

// New starts a mux for node id. The mux takes ownership of the node's
// receive queue; create it before any component that would otherwise consume
// the queue directly.
func New(net *netsim.Network, id netsim.NodeID) (*Mux, error) {
	inbox, err := net.Recv(id)
	if err != nil {
		return nil, fmt.Errorf("netmux: %w", err)
	}
	m := &Mux{
		net:     net,
		id:      id,
		chans:   make(map[byte]chan netsim.Packet),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		metrics: net.Metrics(id),
	}
	go m.loop(inbox)
	return m, nil
}

// ID returns the mux's node.
func (m *Mux) ID() netsim.NodeID { return m.id }

// Network returns the underlying substrate.
func (m *Mux) Network() *netsim.Network { return m.net }

// Channel returns (registering on first use) the receive channel for a
// protocol byte. Packets whose first byte matches proto are delivered here
// with the protocol byte preserved.
func (m *Mux) Channel(proto byte) <-chan netsim.Packet {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch, ok := m.chans[proto]
	if !ok {
		ch = make(chan netsim.Packet, channelSize)
		m.chans[proto] = ch
	}
	return ch
}

// Send transmits a datagram to a radio neighbour (single hop).
func (m *Mux) Send(to netsim.NodeID, data []byte) error {
	return m.net.Send(m.id, to, data)
}

// Broadcast transmits a datagram to all radio neighbours.
func (m *Mux) Broadcast(data []byte) (int, error) {
	return m.net.Broadcast(m.id, data)
}

// Close stops the demux loop.
func (m *Mux) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stop)
	<-m.done
}

func (m *Mux) loop(inbox <-chan netsim.Packet) {
	defer close(m.done)
	for {
		select {
		case <-m.stop:
			return
		case pkt, ok := <-inbox:
			if !ok {
				return
			}
			m.dispatch(pkt)
		}
	}
}

func (m *Mux) dispatch(pkt netsim.Packet) {
	if len(pkt.Data) == 0 {
		return
	}
	proto := pkt.Data[0]
	m.mu.Lock()
	ch := m.chans[proto]
	m.mu.Unlock()
	if ch == nil {
		m.drop(proto)
		return
	}
	select {
	case ch <- pkt:
	default:
		m.drop(proto)
	}
}

func (m *Mux) drop(proto byte) {
	m.metrics.Counter(fmt.Sprintf("netmux.dropped.%d", proto)).Inc(1)
}
