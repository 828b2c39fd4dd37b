package routing

import (
	"fmt"
	"time"

	"ndsm/internal/netsim"
)

// Mesh manages one Router per network node — the shape every experiment and
// the MiLAN configurator use. It also provides deterministic convergence for
// proactive strategies: Tick rounds followed by quiescence detection.
type Mesh struct {
	net     *netsim.Network
	routers map[netsim.NodeID]*Router
	order   []netsim.NodeID
	wake    chan struct{} // a router has handled a packet
}

// NewMesh builds a router for every node currently in the network. factory
// must return a fresh Strategy per node (strategies hold per-node state).
func NewMesh(net *netsim.Network, factory func() Strategy) (*Mesh, error) {
	m := &Mesh{net: net, routers: make(map[netsim.NodeID]*Router), wake: make(chan struct{}, 1)}
	for _, id := range net.Nodes() {
		r, err := newRouter(net, id, factory(), nil, m.wake)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("routing: mesh: %w", err)
		}
		m.routers[id] = r
		m.order = append(m.order, id)
	}
	return m, nil
}

// Router returns the router for a node (nil if absent).
func (m *Mesh) Router(id netsim.NodeID) *Router { return m.routers[id] }

// Close stops every router.
func (m *Mesh) Close() {
	for _, r := range m.routers {
		r.Close()
	}
}

// Tick runs one advertisement round on every router.
func (m *Mesh) Tick() {
	for _, id := range m.order {
		m.routers[id].Tick()
	}
}

// Settle blocks until the mesh is quiet — no delayed delivery is in flight
// on the network, and every packet it put in a router's inbox has been
// handled, forwarding included — or until timeout passes on the network's
// clock. It reports whether the mesh quiesced.
func (m *Mesh) Settle(timeout time.Duration) bool {
	clock := m.net.Clock()
	bound := clock.Timer(clock.Now().Add(timeout))
	defer bound.Stop()
	for !m.quiet() {
		select {
		case <-m.wake:
		case <-bound.C():
			return m.quiet()
		}
	}
	return true
}

// quiet reads the routers' handled counts before what netsim queued for
// them. Both only grow and a router handles only what was queued, so equal
// sums mean every queued packet was handled when netsim was read. The last
// handle wakes Settle after it counts, so no wait misses the quiet instant.
func (m *Mesh) quiet() bool {
	var handled int64
	for _, id := range m.order {
		handled += m.routers[id].Handled()
	}
	queued, inFlight := m.net.Queued(m.order)
	return inFlight == 0 && queued == handled
}

// Converge runs rounds advertisement rounds, settling after each — enough
// for DSDV tables to reach every corner of a connected field when rounds is
// at least the network diameter.
func (m *Mesh) Converge(rounds int) bool {
	ok := true
	for i := 0; i < rounds; i++ {
		m.Tick()
		ok = m.Settle(10*time.Second) && ok
	}
	return ok
}
