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
}

// NewMesh builds a router for every node currently in the network. factory
// must return a fresh Strategy per node (strategies hold per-node state).
func NewMesh(net *netsim.Network, factory func() Strategy) (*Mesh, error) {
	m := &Mesh{net: net, routers: make(map[netsim.NodeID]*Router)}
	for _, id := range net.Nodes() {
		r, err := New(net, id, factory())
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

// Settle blocks until all routers have drained their inboxes and processed
// everything in flight, or the timeout elapses. It reports whether the mesh
// quiesced.
func (m *Mesh) Settle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	stable := 0
	var last int64 = -1
	for time.Now().Before(deadline) {
		total := int64(0)
		empty := true
		for _, id := range m.order {
			total += m.routers[id].Handled()
			if ch, err := m.net.Recv(id); err == nil && len(ch) > 0 {
				empty = false
			}
		}
		if empty && total == last {
			stable++
			if stable >= 3 {
				return true
			}
		} else {
			stable = 0
		}
		last = total
		time.Sleep(time.Millisecond)
	}
	return false
}

// Converge runs rounds advertisement rounds, settling after each — enough
// for DSDV tables to reach every corner of a connected field when rounds is
// at least the network diameter.
func (m *Mesh) Converge(rounds int) bool {
	ok := true
	for i := 0; i < rounds; i++ {
		m.Tick()
		if !m.Settle(10 * time.Second) {
			ok = false
		}
	}
	return ok
}
