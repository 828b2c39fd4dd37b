package milan

import (
	"errors"
	"fmt"

	"ndsm/internal/netsim"
	"ndsm/internal/routing"
)

// Manager is MiLAN's runtime: each reporting round it (re)selects the
// operating sensor set, routes every selected sensor's sample to the sink
// over greedy geographic multi-hop paths, and lets the radio energy model
// drain batteries. The network "lives" for as long as a feasible set exists.
//
// The manager performs forwarding itself, hop by hop — this *is* MiLAN's
// design point: the middleware, not the application and not a separate
// routing layer, decides which nodes transmit and which relay (§4: "we do
// not exploit any existing routing algorithms, but rather the middleware
// incorporates this functionality"). Each hop is routing.GreedyNextHop, the
// step routing.Geographic takes too.
type Manager struct {
	sys      *System
	net      *netsim.Network
	selector Selector
	state    State

	active []int

	rounds     int
	reconfigs  int
	delivered  int64
	failed     int64
	firstDeath int // round of first sensor death (0: none yet)
}

// NewManager validates the system and selects the initial configuration.
func NewManager(sys *System, net *netsim.Network, selector Selector, state State) (*Manager, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if selector == nil {
		selector = Exhaustive{}
	}
	if _, ok := sys.App.Required[state]; !ok {
		return nil, fmt.Errorf("milan: unknown state %q", state)
	}
	m := &Manager{sys: sys, net: net, selector: selector, state: state}
	if err := m.reconfigure(); err != nil {
		return nil, err
	}
	m.reconfigs = 0 // the initial selection is not an adaptation
	return m, nil
}

// Active returns the currently selected sensor nodes, sorted by index.
func (m *Manager) Active() []netsim.NodeID {
	out := make([]netsim.NodeID, 0, len(m.active))
	for _, i := range m.active {
		out = append(out, m.sys.Sensors[i].Node)
	}
	return out
}

// Stats reports the run so far.
type Stats struct {
	Rounds     int
	Reconfigs  int
	Delivered  int64
	Failed     int64
	FirstDeath int
}

// Stats returns a snapshot.
func (m *Manager) Stats() Stats {
	return Stats{
		Rounds:     m.rounds,
		Reconfigs:  m.reconfigs,
		Delivered:  m.delivered,
		Failed:     m.failed,
		FirstDeath: m.firstDeath,
	}
}

// energies snapshots residual energy for all sensors.
func (m *Manager) energies() Energies {
	e := make(Energies, len(m.sys.Sensors))
	for _, sn := range m.sys.Sensors {
		if !m.net.Alive(sn.Node) {
			e[sn.Node] = 0
			continue
		}
		v, err := m.net.Energy(sn.Node)
		if err != nil {
			v = 0
		}
		e[sn.Node] = v
	}
	return e
}

// positions snapshots the sensors' and the sink's positions.
func (m *Manager) positions() map[netsim.NodeID]netsim.Position {
	p := make(map[netsim.NodeID]netsim.Position, len(m.sys.Sensors)+1)
	add := func(id netsim.NodeID) {
		if pos, err := m.net.PositionOf(id); err == nil {
			p[id] = pos
		}
	}
	add(m.sys.Sink)
	for _, sn := range m.sys.Sensors {
		add(sn.Node)
	}
	return p
}

// reconfigure reselects the active set.
func (m *Manager) reconfigure() error {
	set, err := m.selector.Select(m.sys, m.state, m.energies(), m.positions())
	if err != nil {
		return err
	}
	m.active = set
	m.reconfigs++
	return nil
}

// SetState switches the application state (e.g. "normal" → "emergency") and
// reconfigures for its requirements.
func (m *Manager) SetState(state State) error {
	if _, ok := m.sys.App.Required[state]; !ok {
		return fmt.Errorf("milan: unknown state %q", state)
	}
	m.state = state
	return m.reconfigure()
}

// activeHealthy reports whether every active sensor is alive and the set is
// still feasible.
func (m *Manager) activeHealthy() bool {
	if len(m.active) == 0 {
		return false
	}
	for _, i := range m.active {
		if !m.net.Alive(m.sys.Sensors[i].Node) {
			return false
		}
	}
	return m.sys.Feasible(m.active, m.state)
}

// Role is a node's network assignment under the current configuration —
// §4: MiLAN "must then configure the network (e.g., determine which
// components should send data, which nodes should be routers in multi-hop
// networks...)".
type Role string

// Network roles.
const (
	// RoleSource nodes sample and transmit.
	RoleSource Role = "source"
	// RoleRouter nodes relay on some source's path to the sink.
	RoleRouter Role = "router"
	// RoleSleeper nodes are not needed and may power down.
	RoleSleeper Role = "sleeper"
	// RoleSink is the data destination.
	RoleSink Role = "sink"
)

// Roles computes the current network configuration: every active sensor is a
// source; nodes on any source's greedy path to the sink are routers; all
// remaining sensors sleep.
func (m *Manager) Roles() map[netsim.NodeID]Role {
	roles := make(map[netsim.NodeID]Role, len(m.sys.Sensors)+1)
	roles[m.sys.Sink] = RoleSink
	for _, sn := range m.sys.Sensors {
		roles[sn.Node] = RoleSleeper
	}
	// Mark routers first so sources that also relay end up as sources.
	for _, i := range m.active {
		cur := m.sys.Sensors[i].Node
		for hops := 0; hops < 64; hops++ {
			next, ok := routing.GreedyNextHop(m.net, cur, m.sys.Sink)
			if !ok || next == m.sys.Sink {
				break
			}
			roles[next] = RoleRouter
			cur = next
		}
	}
	for _, i := range m.active {
		roles[m.sys.Sensors[i].Node] = RoleSource
	}
	return roles
}

// Round executes one reporting round. It returns ErrInfeasible when the
// network can no longer satisfy the application (lifetime reached).
func (m *Manager) Round() error {
	if !m.activeHealthy() {
		if err := m.reconfigure(); err != nil {
			return err
		}
	}
	for _, i := range m.active {
		sn := m.sys.Sensors[i]
		if err := m.routeToSink(sn.Node, make([]byte, sn.SampleBytes)); err != nil {
			m.failed++
		} else {
			m.delivered++
		}
	}
	m.rounds++
	if m.firstDeath == 0 {
		for _, sn := range m.sys.Sensors {
			if !m.net.Alive(sn.Node) {
				m.firstDeath = m.rounds
				break
			}
		}
	}
	return nil
}

// Run executes rounds until the system becomes infeasible or maxRounds is
// reached; it returns the achieved lifetime in rounds.
func (m *Manager) Run(maxRounds int) (int, error) {
	for r := 0; r < maxRounds; r++ {
		if err := m.Round(); err != nil {
			if errors.Is(err, ErrInfeasible) {
				return m.rounds, nil
			}
			return m.rounds, err
		}
	}
	return m.rounds, nil
}

// routeToSink forwards a payload hop by hop along the greedy geographic
// path, draining each relay's inbox so queues stay empty and delivery is
// verified synchronously.
func (m *Manager) routeToSink(from netsim.NodeID, payload []byte) error {
	cur := from
	for hops := 0; hops < 64; hops++ {
		if cur == m.sys.Sink {
			return nil
		}
		next, ok := routing.GreedyNextHop(m.net, cur, m.sys.Sink)
		if !ok {
			return fmt.Errorf("milan: no route from %s toward sink", cur)
		}
		if err := m.net.Send(cur, next, payload); err != nil {
			return err
		}
		// Consume the packet at the relay (synchronous delivery).
		if ch, err := m.net.Recv(next); err == nil {
			select {
			case <-ch:
			default:
			}
		}
		cur = next
	}
	return errors.New("milan: hop limit exceeded")
}
