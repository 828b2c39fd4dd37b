// Package netsim is the simulated network substrate standing in for the
// wireless testbeds the paper assumes (Bluetooth, 802.11, sensor radios).
//
// It models what the middleware actually observes from a radio network:
//
//   - a planar field of nodes with positions and a fixed radio range,
//   - single-hop unicast and broadcast with configurable loss and latency,
//   - a first-order radio energy model (Heinzelman's LEACH model:
//     E_tx(k,d) = E_elec*k + ε_amp*k*d², E_rx(k) = E_elec*k) with per-node
//     energy budgets and death on exhaustion,
//   - node mobility (explicit moves plus a random-waypoint stepper),
//   - network partitions (severed link pairs),
//   - one metrics registry per node (Metrics), holding that node's traffic
//     counters; the node's netmux, router and discovery agent count into it
//     too, so a snapshot says which node sent, lost or dropped a packet.
//
// Multi-hop communication is built above this by internal/routing; the
// simulator itself only ever delivers between radio neighbours.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/trace"
)

// NodeID names a simulated node.
type NodeID string

// Position is a point on the simulation field, in meters.
type Position struct {
	X float64
	Y float64
}

// Distance returns the Euclidean distance between two positions.
func (p Position) Distance(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Packet is a single-hop datagram delivered between radio neighbours.
type Packet struct {
	// From and To identify the endpoints. To is empty for broadcasts.
	From NodeID
	To   NodeID
	// Data is the payload; the simulator charges energy per byte.
	Data []byte
	// ArrivedAt is the simulated arrival time.
	ArrivedAt time.Time
}

// The first-order radio energy model, with the LEACH paper's constants.
const (
	// elecJPerBit is the electronics energy per bit for both TX and RX
	// circuitry (50 nJ/bit).
	elecJPerBit = 50e-9
	// ampJPerBitM2 is the transmit amplifier energy per bit per m²
	// (100 pJ/bit/m²).
	ampJPerBitM2 = 100e-12
)

// TxEnergy returns the energy in joules to transmit n bytes over distance d
// meters.
func TxEnergy(n int, d float64) float64 {
	bits := float64(n * 8)
	return elecJPerBit*bits + ampJPerBitM2*bits*d*d
}

// RxEnergy returns the energy in joules to receive n bytes.
func RxEnergy(n int) float64 {
	return elecJPerBit * float64(n*8)
}

// initialEnergy is each node's starting budget in joules under AddNode (use
// Config.Unlimited for no budget).
const initialEnergy = 2.0

// Config parameterizes a Network. Every network spends energy by TxEnergy
// and RxEnergy and starts lossless; SetLossRate changes that at runtime.
type Config struct {
	// Range is the radio range in meters (default 25).
	Range float64
	// Latency is the fixed one-hop delivery delay (default 0: synchronous
	// delivery).
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per packet.
	Jitter time.Duration
	// InboxSize is each node's receive queue capacity; packets arriving at a
	// full queue are dropped and counted (default 256).
	InboxSize int
	// Unlimited disables energy accounting deaths (consumption still
	// tracked).
	Unlimited bool
	// Clock drives latency timers (default simtime.Real).
	Clock simtime.Clock
	// Seed seeds the loss/jitter/mobility RNG (default 1).
	Seed int64
	// Tracer records one span per radio hop (unicast send, broadcast) with
	// the drop reason on failures, so a user-level call's timeline shows
	// where each packet went. Nil records nothing; span creation never
	// touches the simulation RNG, so traced and untraced runs with the
	// same seed behave identically.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Range <= 0 {
		c.Range = 25
	}
	if c.InboxSize <= 0 {
		c.InboxSize = 256
	}
	c.Clock = simtime.OrReal(c.Clock)
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Errors returned by Network operations.
var (
	ErrUnknownNode   = errors.New("netsim: unknown node")
	ErrNodeDead      = errors.New("netsim: node is dead")
	ErrNotNeighbor   = errors.New("netsim: destination out of radio range")
	ErrLinkSevered   = errors.New("netsim: link severed by partition")
	ErrPacketLost    = errors.New("netsim: packet lost")
	ErrInboxFull     = errors.New("netsim: destination inbox full")
	ErrNetworkClosed = errors.New("netsim: network closed")
	ErrDuplicateNode = errors.New("netsim: node already exists")
)

type simNode struct {
	id     NodeID
	pos    Position
	energy float64
	alive  bool
	inbox  chan Packet
	queued int64 // packets put in inbox, under Network.mu

	// metrics is the node's registry. Its traffic counts there as
	// "netsim.<name>" — a transmission at its sender, a delivery, a loss and
	// an inbox overflow at the receiver — and the energy it spent as the
	// gauge "netsim.energy_consumed_j".
	metrics *obs.Registry
}

// Network is a simulated radio field. All methods are safe for concurrent
// use.
type Network struct {
	cfg Config

	mu       sync.Mutex
	rng      *rand.Rand
	lossRate float64 // independent per-packet loss probability
	nodes    map[NodeID]*simNode
	severed  map[[2]NodeID]bool
	closed   bool

	wg       sync.WaitGroup
	stop     chan struct{}
	inFlight atomic.Int64 // delayed deliveries not yet offered to an inbox
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	return &Network{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		nodes:   make(map[NodeID]*simNode),
		severed: make(map[[2]NodeID]bool),
		stop:    make(chan struct{}),
	}
}

// Close stops all in-flight deliveries and waits for them.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.stop)
	n.mu.Unlock()
	n.wg.Wait()
}

// AddNode places a node on the field with the default energy budget.
func (n *Network) AddNode(id NodeID, pos Position) error {
	return n.AddNodeEnergy(id, pos, initialEnergy)
}

// AddNodeEnergy places a node with an explicit energy budget in joules.
func (n *Network) AddNodeEnergy(id NodeID, pos Position, energy float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrNetworkClosed
	}
	if _, ok := n.nodes[id]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateNode, id)
	}
	n.nodes[id] = &simNode{
		id:      id,
		pos:     pos,
		energy:  energy,
		alive:   true,
		inbox:   make(chan Packet, n.cfg.InboxSize),
		metrics: obs.NewRegistry(),
	}
	return nil
}

// Metrics returns the node's metrics registry, nil for an unknown node. The
// simulator counts the node's traffic in it, and every component built on
// (network, node) — its netmux, router and discovery agent, and in simulated
// worlds its middleware node — counts there as well.
func (n *Network) Metrics(id NodeID) *obs.Registry {
	n.mu.Lock()
	defer n.mu.Unlock()
	if node := n.nodes[id]; node != nil {
		return node.metrics
	}
	return nil
}

// Kill marks a node dead (crash-stop failure); its inbox stays open but it
// no longer sends or receives.
func (n *Network) Kill(id NodeID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	node.alive = false
	return nil
}

// Revive brings a killed node back (if it has energy left).
func (n *Network) Revive(id NodeID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	if node.energy > 0 || n.cfg.Unlimited {
		node.alive = true
	}
	return nil
}

// Alive reports whether the node exists and is alive.
func (n *Network) Alive(id NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[id]
	return ok && node.alive
}

// MoveNode teleports a node to a new position (mobility).
func (n *Network) MoveNode(id NodeID, pos Position) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	node.pos = pos
	return nil
}

// PositionOf returns a node's current position.
func (n *Network) PositionOf(id NodeID) (Position, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[id]
	if !ok {
		return Position{}, fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	return node.pos, nil
}

// Nodes returns the IDs of all nodes (alive or dead), sorted.
func (n *Network) Nodes() []NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Neighbors returns the alive nodes within radio range of id, excluding
// severed links, sorted by ID.
func (n *Network) Neighbors(id NodeID) ([]NodeID, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	var out []NodeID
	for oid, other := range n.nodes {
		if oid == id || !other.alive {
			continue
		}
		if node.pos.Distance(other.pos) <= n.cfg.Range && !n.severedLocked(id, oid) {
			out = append(out, oid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Density returns the number of alive radio neighbours of id.
func (n *Network) Density(id NodeID) int {
	nb, err := n.Neighbors(id)
	if err != nil {
		return 0
	}
	return len(nb)
}

// Recv returns the receive queue of a node. Reading from it consumes
// delivered packets.
func (n *Network) Recv(id NodeID) (<-chan Packet, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	return node.inbox, nil
}

// Queued reports, at one instant, how many packets the network has put in
// the inboxes of ids, and how many delayed deliveries are still on their way
// to any inbox. A reader that counts what it took and finished, first, knows
// nothing is left or coming when inFlight is 0 and queued equals its count.
func (n *Network) Queued(ids []NodeID) (queued, inFlight int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, id := range ids {
		if node := n.nodes[id]; node != nil {
			queued += node.queued
		}
	}
	return queued, n.inFlight.Load()
}

// Clock returns the clock the network's deliveries run on.
func (n *Network) Clock() simtime.Clock { return n.cfg.Clock }

// Energy returns the remaining energy budget of a node in joules.
func (n *Network) Energy(id NodeID) (float64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	return node.energy, nil
}

// Consumed returns the total energy a node has spent.
func (n *Network) Consumed(id NodeID) (float64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	return node.metrics.Gauge("netsim.energy_consumed_j").Value(), nil
}

// TotalConsumed returns the energy spent across all nodes.
func (n *Network) TotalConsumed() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var sum float64
	for _, node := range n.nodes {
		sum += node.metrics.Gauge("netsim.energy_consumed_j").Value()
	}
	return sum
}

// SetLossRate replaces the per-packet loss probability at runtime and
// returns the previous rate. Fault-injection harnesses use it to model loss
// bursts: raise the rate for a window, then restore the returned value.
func (n *Network) SetLossRate(p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	prev := n.lossRate
	n.lossRate = p
	return prev
}

// SetLatency replaces the fixed one-hop delay and jitter at runtime and
// returns the previous values (latency spikes, the dual of SetLossRate).
// Packets already in flight keep their original arrival times.
func (n *Network) SetLatency(latency, jitter time.Duration) (time.Duration, time.Duration) {
	if latency < 0 {
		latency = 0
	}
	if jitter < 0 {
		jitter = 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	prevLat, prevJit := n.cfg.Latency, n.cfg.Jitter
	n.cfg.Latency, n.cfg.Jitter = latency, jitter
	return prevLat, prevJit
}

// Isolate severs every link between id and all other current nodes — the
// single-node partition a fault injector uses to cut an infrastructure node
// off without killing it. Undo with Rejoin.
func (n *Network) Isolate(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for oid := range n.nodes {
		if oid != id {
			n.severed[linkKey(id, oid)] = true
		}
	}
}

// Rejoin heals every severed link involving id.
func (n *Network) Rejoin(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for k := range n.severed {
		if k[0] == id || k[1] == id {
			delete(n.severed, k)
		}
	}
}

func linkKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

func (n *Network) severedLocked(a, b NodeID) bool {
	return n.severed[linkKey(a, b)]
}

// Counters sums the traffic counters of every node's registry: sent,
// delivered, lost, dropped_full, broadcasts, bytes.
func (n *Network) Counters() map[string]int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]int64)
	for _, node := range n.nodes {
		for name, v := range node.metrics.Snapshot().Counters {
			if name, ok := strings.CutPrefix(name, "netsim."); ok {
				out[name] += v
			}
		}
	}
	return out
}

// Send transmits data from one node to a radio neighbour. It charges TX
// energy to the sender and, on successful delivery, RX energy to the
// receiver. It returns an error describing why delivery failed; the energy
// for the attempt is charged regardless (the radio transmitted either way).
//
// With a tracer installed each hop records a "radio.send" span under the
// sender's ambient span, closing at the packet's simulated arrival time so
// the timeline shows the hop latency; failed hops record the drop reason.
func (n *Network) Send(from, to NodeID, data []byte) error {
	sp := n.cfg.Tracer.StartSpan("radio.send", trace.Context{})
	dst, pkt, err := n.transmit(from, to, data)
	if err == nil {
		err = n.deliver(dst, pkt)
	}
	sp.SetAttr("from", string(from))
	sp.SetAttr("to", string(to))
	finishHop(sp, pkt.ArrivedAt, err)
	return err
}

// transmit charges a unicast and draws its fate; on success it returns the
// packet to deliver and its destination.
func (n *Network) transmit(from, to NodeID, data []byte) (*simNode, Packet, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	src, err := n.senderLocked(from)
	if err != nil {
		return nil, Packet{}, err
	}
	dst, ok := n.nodes[to]
	if !ok {
		return nil, Packet{}, fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	d := src.pos.Distance(dst.pos)
	if d > n.cfg.Range {
		return nil, Packet{}, fmt.Errorf("%w: %s -> %s (%.1fm > %.1fm)", ErrNotNeighbor, from, to, d, n.cfg.Range)
	}
	if n.severedLocked(from, to) {
		return nil, Packet{}, fmt.Errorf("%w: %s -> %s", ErrLinkSevered, from, to)
	}

	n.chargeLocked(src, TxEnergy(len(data), d))
	src.metrics.Counter("netsim.sent").Inc(1)
	src.metrics.Counter("netsim.bytes").Inc(int64(len(data)))

	if !dst.alive {
		return nil, Packet{}, fmt.Errorf("%w: %s", ErrNodeDead, to)
	}
	if n.lossRate > 0 && n.rng.Float64() < n.lossRate {
		dst.metrics.Counter("netsim.lost").Inc(1)
		return nil, Packet{}, fmt.Errorf("%w: %s -> %s", ErrPacketLost, from, to)
	}
	n.chargeLocked(dst, RxEnergy(len(data)))
	if !dst.alive { // RX cost may have exhausted the destination
		return nil, Packet{}, fmt.Errorf("%w: %s", ErrNodeDead, to)
	}
	arrive := n.cfg.Clock.Now().Add(n.latencyLocked())
	return dst, Packet{From: from, To: to, Data: append([]byte(nil), data...), ArrivedAt: arrive}, nil
}

// Broadcast transmits data from a node to every alive radio neighbour. The
// sender is charged a single maximum-range transmission; each neighbour pays
// RX cost and loss is evaluated per receiver. It returns the number of
// neighbours the packet was delivered to.
//
// With a tracer installed the whole broadcast records one "radio.broadcast"
// span (delivered count as an attribute), closing at the latest simulated
// arrival among the receivers.
func (n *Network) Broadcast(from NodeID, data []byte) (int, error) {
	sp := n.cfg.Tracer.StartSpan("radio.broadcast", trace.Context{})
	if sp == nil {
		c, _, err := n.broadcast(from, data)
		return c, err
	}
	sp.SetAttr("from", string(from))
	count, latest, err := n.broadcast(from, data)
	sp.SetAttr("delivered", fmt.Sprintf("%d", count))
	finishHop(sp, latest, err)
	return count, err
}

// finishHop ends a hop's span at the simulated arrival, or now if nothing
// arrived.
func finishHop(sp *trace.Span, arrive time.Time, err error) {
	sp.SetError(err)
	if err == nil && !arrive.IsZero() {
		sp.FinishAt(arrive)
		return
	}
	sp.Finish()
}

// broadcast is Broadcast's untraced body; it also returns the latest
// simulated arrival time among the delivered copies.
func (n *Network) broadcast(from NodeID, data []byte) (int, time.Time, error) {
	n.mu.Lock()
	src, err := n.senderLocked(from)
	if err != nil {
		n.mu.Unlock()
		return 0, time.Time{}, err
	}
	n.chargeLocked(src, TxEnergy(len(data), n.cfg.Range))
	src.metrics.Counter("netsim.sent").Inc(1)
	src.metrics.Counter("netsim.broadcasts").Inc(1)
	src.metrics.Counter("netsim.bytes").Inc(int64(len(data)))

	type target struct {
		node *simNode
		pkt  Packet
	}
	var targets []target
	now := n.cfg.Clock.Now()
	for oid, other := range n.nodes {
		if oid == from || !other.alive {
			continue
		}
		if src.pos.Distance(other.pos) > n.cfg.Range || n.severedLocked(from, oid) {
			continue
		}
		if n.lossRate > 0 && n.rng.Float64() < n.lossRate {
			other.metrics.Counter("netsim.lost").Inc(1)
			continue
		}
		n.chargeLocked(other, RxEnergy(len(data)))
		if !other.alive {
			continue
		}
		pkt := Packet{From: from, Data: append([]byte(nil), data...), ArrivedAt: now.Add(n.latencyLocked())}
		targets = append(targets, target{other, pkt})
	}
	n.mu.Unlock()

	delivered := 0
	var latest time.Time
	for _, tg := range targets {
		if err := n.deliver(tg.node, tg.pkt); err == nil {
			delivered++
			if tg.pkt.ArrivedAt.After(latest) {
				latest = tg.pkt.ArrivedAt
			}
		}
	}
	return delivered, latest, nil
}

// deliver places pkt in dst's inbox at pkt.ArrivedAt on the network's
// clock, at once if that instant has come, unless Close comes first.
func (n *Network) deliver(dst *simNode, pkt Packet) error {
	if !pkt.ArrivedAt.After(n.cfg.Clock.Now()) {
		return n.offer(dst, pkt, false)
	}
	n.inFlight.Add(1)
	timer := n.cfg.Clock.Timer(pkt.ArrivedAt)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		select {
		case <-timer.C():
			_ = n.offer(dst, pkt, true)
		case <-n.stop:
			timer.Stop()
			n.inFlight.Add(-1)
		}
	}()
	return nil
}

// offer puts pkt in dst's inbox, or drops it if the inbox is full. Under
// n.mu, before the packet can be taken, it counts it queued and, if it was
// delayed, no longer in flight, so Queued never reads one without the other.
func (n *Network) offer(dst *simNode, pkt Packet, delayed bool) error {
	n.mu.Lock()
	if delayed {
		n.inFlight.Add(-1)
	}
	full := len(dst.inbox) == cap(dst.inbox)
	if !full {
		dst.queued++
		dst.inbox <- pkt // only offer sends, under n.mu, so this never blocks
	}
	n.mu.Unlock()
	if full {
		dst.metrics.Counter("netsim.dropped_full").Inc(1)
		return ErrInboxFull
	}
	dst.metrics.Counter("netsim.delivered").Inc(1)
	return nil
}

// senderLocked returns node from if it may transmit. Callers hold n.mu.
func (n *Network) senderLocked(from NodeID) (*simNode, error) {
	src, ok := n.nodes[from]
	switch {
	case n.closed:
		return nil, ErrNetworkClosed
	case !ok:
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, from)
	case !src.alive:
		return nil, fmt.Errorf("%w: %s", ErrNodeDead, from)
	}
	return src, nil
}

// latencyLocked draws a delivery delay. Callers hold n.mu (for the RNG).
func (n *Network) latencyLocked() time.Duration {
	lat := n.cfg.Latency
	if n.cfg.Jitter > 0 {
		lat += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	return lat
}

// chargeLocked deducts energy from a node and kills it on exhaustion.
func (n *Network) chargeLocked(node *simNode, joules float64) {
	node.metrics.Gauge("netsim.energy_consumed_j").Add(joules)
	if n.cfg.Unlimited {
		return
	}
	node.energy -= joules
	if node.energy <= 0 {
		node.energy = 0
		node.alive = false
	}
}
