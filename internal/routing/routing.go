// Package routing provides multi-hop datagram delivery over the netsim
// radio substrate — the paper's locating-and-routing feature (§3.5). The
// paper argues routing belongs *inside* the middleware so it can exploit
// low-level network information (energy, position) that per-application
// routing cannot; MiLAN (§4) relies on exactly this to extend network
// lifetime.
//
// A Router instance runs on each node. Stacked under transport.Sim it
// satisfies transport.DatagramService, so everything above the transport is
// oblivious to hop count. Four strategies ship:
//
//   - Flooding: TTL-bounded broadcast with duplicate suppression — the
//     baseline every comparison measures against,
//   - DSDV-style distance vector with hop-count metric,
//   - Energy-aware distance vector: link cost grows as the next hop's
//     residual energy falls, steering traffic around nearly-drained nodes,
//   - Greedy geographic forwarding using node positions (the GPS/location
//     substrate stands in via the simulator's position oracle).
package routing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ndsm/internal/netsim"
	"ndsm/internal/obs"
)

// Routed packet header constants.
const (
	routeMagic  = 0xAB
	typeData    = 1
	typeControl = 2
	// DefaultTTL bounds forwarding chains; diameter of our test fields stays
	// well below it.
	DefaultTTL = 32
	// outboxSize is the delivered-packet queue depth per router.
	outboxSize = 256
	// dedupWindow is how many recent sequence numbers per origin the
	// duplicate-suppression cache retains.
	dedupWindow = 1024
)

// Routing errors.
var (
	ErrNoRoute      = errors.New("routing: no route to destination")
	ErrRouterClosed = errors.New("routing: router closed")
)

// packet is the parsed routed-packet header.
type packet struct {
	ptype   byte
	origin  netsim.NodeID
	dest    netsim.NodeID // empty for control broadcasts
	seq     uint32
	ttl     uint8
	payload []byte
}

func (p *packet) encode() []byte {
	buf := make([]byte, 0, 16+len(p.origin)+len(p.dest)+len(p.payload))
	buf = append(buf, routeMagic, p.ptype, p.ttl)
	var seq [4]byte
	binary.BigEndian.PutUint32(seq[:], p.seq)
	buf = append(buf, seq[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(p.origin)))
	buf = append(buf, p.origin...)
	buf = binary.AppendUvarint(buf, uint64(len(p.dest)))
	buf = append(buf, p.dest...)
	buf = append(buf, p.payload...)
	return buf
}

func decodePacket(data []byte) (*packet, error) {
	if len(data) < 7 || data[0] != routeMagic {
		return nil, errors.New("routing: not a routed packet")
	}
	p := &packet{ptype: data[1], ttl: data[2], seq: binary.BigEndian.Uint32(data[3:7])}
	rest := data[7:]
	readStr := func() (string, error) {
		n, used := binary.Uvarint(rest)
		if used <= 0 || n > uint64(len(rest)-used) {
			return "", errors.New("routing: truncated packet")
		}
		s := string(rest[used : used+int(n)])
		rest = rest[used+int(n):]
		return s, nil
	}
	origin, err := readStr()
	if err != nil {
		return nil, err
	}
	dest, err := readStr()
	if err != nil {
		return nil, err
	}
	p.origin = netsim.NodeID(origin)
	p.dest = netsim.NodeID(dest)
	p.payload = rest
	return p, nil
}

// Strategy is a routing algorithm plugged into a Router.
type Strategy interface {
	// Name identifies the strategy for reporting.
	Name() string
	// UsesFlooding reports whether data packets are flooded rather than
	// unicast along next hops.
	UsesFlooding() bool
	// NextHop returns the neighbour to forward a packet destined for dest.
	NextHop(r *Router, dest netsim.NodeID) (netsim.NodeID, bool)
	// Advertisement returns this tick's control payload to broadcast to
	// neighbours, or nil when the strategy has nothing to say.
	Advertisement(r *Router) []byte
	// HandleAdvertisement ingests a neighbour's control payload.
	HandleAdvertisement(r *Router, from netsim.NodeID, payload []byte)
}

// Router is one node's routing agent. Create with New, stop with Close.
type Router struct {
	net      *netsim.Network
	id       netsim.NodeID
	strategy Strategy
	ttl      uint8

	seq atomic.Uint32

	mu        sync.Mutex
	seen      map[netsim.NodeID]map[uint32]bool // dedup: origin -> recent seqs
	seenOrder map[netsim.NodeID][]uint32

	out    chan netsim.Packet
	stop   chan struct{}
	done   chan struct{}
	closed atomic.Bool

	// metrics is the node's registry (netsim.Network.Metrics). A packet
	// the router gives up on counts there as "routing.dropped.<reason>":
	// decode, ttl, no_route, send (a relay hop failed) or queue_full.
	metrics *obs.Registry

	// handled counts every inbound radio packet processed, for Mesh.Settle,
	// which wake (nil outside a Mesh) rouses after each one.
	handled atomic.Int64
	wake    chan<- struct{}
}

// New creates and starts a router for node id using the given strategy. The
// router consumes the node's netsim receive queue directly; when other
// protocols share the radio, demultiplex with netmux and use NewWithSource.
func New(net *netsim.Network, id netsim.NodeID, strategy Strategy) (*Router, error) {
	return newRouter(net, id, strategy, nil, nil)
}

// NewWithSource creates a router fed from an explicit packet source (e.g. a
// netmux protocol channel) instead of the node's raw receive queue.
func NewWithSource(net *netsim.Network, id netsim.NodeID, strategy Strategy, inbox <-chan netsim.Packet) (*Router, error) {
	return newRouter(net, id, strategy, inbox, nil)
}

// newRouter starts a router fed from inbox, or from the node's receive queue
// if inbox is nil, that signals wake each time it has handled a packet.
func newRouter(net *netsim.Network, id netsim.NodeID, strategy Strategy, inbox <-chan netsim.Packet, wake chan<- struct{}) (*Router, error) {
	if inbox == nil {
		var err error
		if inbox, err = net.Recv(id); err != nil {
			return nil, fmt.Errorf("routing: %w", err)
		}
	}
	if _, err := net.PositionOf(id); err != nil {
		return nil, fmt.Errorf("routing: %w", err)
	}
	r := &Router{
		net:       net,
		id:        id,
		strategy:  strategy,
		ttl:       DefaultTTL,
		seen:      make(map[netsim.NodeID]map[uint32]bool),
		seenOrder: make(map[netsim.NodeID][]uint32),
		out:       make(chan netsim.Packet, outboxSize),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		metrics:   net.Metrics(id),
		wake:      wake,
	}
	go r.loop(inbox)
	return r, nil
}

// ID returns the router's node.
func (r *Router) ID() netsim.NodeID { return r.id }

// Network returns the underlying substrate (used by strategies).
func (r *Router) Network() *netsim.Network { return r.net }

// Close stops the router's demux loop.
func (r *Router) Close() {
	if r.closed.CompareAndSwap(false, true) {
		close(r.stop)
		<-r.done
	}
}

// Send implements transport.DatagramService: deliver data to dest over
// multiple hops. from must equal the router's own node.
func (r *Router) Send(from, to netsim.NodeID, data []byte) error {
	if from != r.id {
		return fmt.Errorf("routing: router %s cannot send as %s", r.id, from)
	}
	if r.closed.Load() {
		return ErrRouterClosed
	}
	p := &packet{
		ptype:   typeData,
		origin:  r.id,
		dest:    to,
		seq:     r.seq.Add(1),
		ttl:     r.ttl,
		payload: data,
	}
	if to == r.id { // loopback
		r.deliver(netsim.Packet{From: from, To: to, Data: append([]byte(nil), data...)})
		return nil
	}
	return r.route(p)
}

// Recv implements transport.DatagramService: the stream of packets whose
// final destination is this node, with routing headers stripped and From set
// to the packet's origin.
func (r *Router) Recv(id netsim.NodeID) (<-chan netsim.Packet, error) {
	if id != r.id {
		return nil, fmt.Errorf("routing: router %s cannot receive for %s", r.id, id)
	}
	return r.out, nil
}

// Tick broadcasts the strategy's current advertisement to neighbours (route
// maintenance). Call it periodically, or use Mesh.Converge in experiments.
func (r *Router) Tick() {
	payload := r.strategy.Advertisement(r)
	if payload == nil {
		return
	}
	p := &packet{
		ptype:   typeControl,
		origin:  r.id,
		seq:     r.seq.Add(1),
		ttl:     1, // advertisements travel a single hop
		payload: payload,
	}
	_, _ = r.net.Broadcast(r.id, p.encode())
}

// route forwards a data packet: flooding or next-hop unicast depending on
// strategy.
func (r *Router) route(p *packet) error {
	if r.strategy.UsesFlooding() {
		r.markSeen(p.origin, p.seq)
		if _, err := r.net.Broadcast(r.id, p.encode()); err != nil {
			return err
		}
		return nil
	}
	hop, ok := r.strategy.NextHop(r, p.dest)
	if !ok {
		return fmt.Errorf("%w: %s -> %s (%s)", ErrNoRoute, r.id, p.dest, r.strategy.Name())
	}
	if err := r.net.Send(r.id, hop, p.encode()); err != nil {
		return fmt.Errorf("routing: hop %s -> %s: %w", r.id, hop, err)
	}
	return nil
}

// loop demultiplexes inbound radio packets.
func (r *Router) loop(inbox <-chan netsim.Packet) {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		case pkt, ok := <-inbox:
			if !ok {
				return
			}
			r.handle(pkt)
			r.handled.Add(1)
			select {
			case r.wake <- struct{}{}:
			default:
			}
		}
	}
}

// Handled reports how many inbound radio packets this router has processed.
func (r *Router) Handled() int64 { return r.handled.Load() }

func (r *Router) handle(raw netsim.Packet) {
	p, err := decodePacket(raw.Data)
	if err != nil {
		r.drop("decode")
		return
	}
	switch p.ptype {
	case typeControl:
		r.strategy.HandleAdvertisement(r, raw.From, p.payload)
	case typeData:
		r.handleData(p)
	}
}

func (r *Router) handleData(p *packet) {
	flooding := r.strategy.UsesFlooding()
	if flooding {
		if r.hasSeen(p.origin, p.seq) {
			return // duplicate
		}
		r.markSeen(p.origin, p.seq)
	}
	if p.dest == r.id {
		r.deliver(netsim.Packet{From: p.origin, To: r.id, Data: p.payload})
		return
	}
	if p.ttl <= 1 {
		r.drop("ttl")
		return
	}
	fwd := *p
	fwd.ttl--
	var err error
	if flooding {
		_, err = r.net.Broadcast(r.id, fwd.encode())
	} else if hop, ok := r.strategy.NextHop(r, p.dest); ok {
		err = r.net.Send(r.id, hop, fwd.encode())
	} else {
		r.drop("no_route")
		return
	}
	if err != nil {
		r.drop("send")
	}
}

func (r *Router) deliver(pkt netsim.Packet) {
	select {
	case r.out <- pkt:
	default: // a full delivery queue loses the packet
		r.drop("queue_full")
	}
}

// drop counts a packet the router gave up on.
func (r *Router) drop(reason string) {
	r.metrics.Counter("routing.dropped." + reason).Inc(1)
}

func (r *Router) hasSeen(origin netsim.NodeID, seq uint32) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[origin][seq]
}

func (r *Router) markSeen(origin netsim.NodeID, seq uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.seen[origin]
	if m == nil {
		m = make(map[uint32]bool)
		r.seen[origin] = m
	}
	if m[seq] {
		return
	}
	m[seq] = true
	order := append(r.seenOrder[origin], seq)
	if len(order) > dedupWindow {
		delete(m, order[0])
		order = order[1:]
	}
	r.seenOrder[origin] = order
}
