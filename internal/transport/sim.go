package transport

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"ndsm/internal/netsim"
	"ndsm/internal/wire"
)

// DatagramService is the single-hop (or, with a router in front, multi-hop)
// datagram substrate the sim transport runs over. *netsim.Network satisfies
// it directly; internal/routing wraps it with multi-hop forwarding while
// keeping the same shape.
type DatagramService interface {
	Send(from, to netsim.NodeID, data []byte) error
	Recv(id netsim.NodeID) (<-chan netsim.Packet, error)
}

var _ DatagramService = (*netsim.Network)(nil)

// ProtoSim is the first byte of every sim-transport datagram (the magic
// byte). A netmux channel registered on this byte receives exactly the sim
// transport's traffic, which lets the transport share one radio with other
// protocol agents (routing, distributed discovery).
const ProtoSim byte = simMagic

// Sim datagram header: [magic][8-byte conn id][flag], then the encoded
// message for data frames.
const (
	simMagic    = 0xC7
	simHdrLen   = 10
	simFlagData = 1
	simFlagFin  = 2
	// simFlagInitiator marks frames sent by the side that dialed the
	// connection. Connection IDs are allocated independently by each node, so
	// this bit disambiguates "your conn 7" from "my conn 7".
	simFlagInitiator = 0x80
)

// simConnBuffer is each sim connection's inbound message buffer. Larger than
// the mem transport's: a pipelined caller keeps a window of replies in flight.
const simConnBuffer = 256

// Sim is the Transport over a simulated radio network. One Sim instance
// belongs to one simulated node; it multiplexes any number of logical
// connections over unreliable datagrams. Connections are established
// implicitly (no handshake): the first data frame with a new connection ID
// creates the accepting side, so connection setup costs zero round trips —
// appropriate for lossy sensor networks where a SYN exchange could never
// complete.
type Sim struct {
	svc   DatagramService
	local netsim.NodeID
	codec wire.Codec

	nextConn atomic.Uint64

	mu       sync.Mutex
	closed   bool
	conns    map[string]*simConn // key: remoteNode + "/" + connID
	listener *simListener

	wg   sync.WaitGroup
	stop chan struct{}

	// DroppedFrames counts inbound frames discarded for malformed headers or
	// full connection buffers.
	droppedFrames atomic.Int64
}

var _ Transport = (*Sim)(nil)

// NewSim creates the transport endpoint for node local on the given
// substrate, and starts its demultiplexer. Codec defaults to Binary.
func NewSim(svc DatagramService, local netsim.NodeID, codec wire.Codec) (*Sim, error) {
	if codec == nil {
		codec = wire.Binary{}
	}
	inbox, err := svc.Recv(local)
	if err != nil {
		return nil, fmt.Errorf("transport: sim: %w", err)
	}
	t := &Sim{
		svc:   svc,
		local: local,
		codec: codec,
		conns: make(map[string]*simConn),
		stop:  make(chan struct{}),
	}
	t.wg.Add(1)
	go t.demux(inbox)
	return t, nil
}

// Name implements Transport.
func (t *Sim) Name() string { return "sim" }

// DroppedFrames reports inbound frames discarded by the demultiplexer.
func (t *Sim) DroppedFrames() int64 { return t.droppedFrames.Load() }

// Listen implements Transport. addr must equal the node's own ID; a node has
// exactly one listener.
func (t *Sim) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if addr != string(t.local) {
		return nil, fmt.Errorf("transport: sim node %s cannot listen on %q", t.local, addr)
	}
	if t.listener != nil {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	l := &simListener{
		t:       t,
		backlog: make(chan *simConn, 16),
		done:    make(chan struct{}),
	}
	t.listener = l
	return l, nil
}

// Dial implements Transport. addr is the remote node ID. Establishment is
// optimistic: no traffic flows until the first Send.
func (t *Sim) Dial(addr string) (Conn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	id := t.nextConn.Add(1)
	c := t.newConnLocked(netsim.NodeID(addr), id, true)
	return c, nil
}

// Close implements Transport.
func (t *Sim) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.stop)
	conns := make([]*simConn, 0, len(t.conns))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	l := t.listener
	t.mu.Unlock()

	if l != nil {
		_ = l.Close()
	}
	for _, c := range conns {
		c.closeLocal(false) // don't send FINs during teardown
	}
	t.wg.Wait()
	return nil
}

// newConnLocked registers a connection. initiator marks who allocated the ID
// (IDs are scoped to the initiating node, so the map key embeds the remote
// for accepted conns and the local allocation for dialed ones).
func (t *Sim) newConnLocked(remote netsim.NodeID, id uint64, dialed bool) *simConn {
	c := &simConn{
		t:      t,
		remote: remote,
		id:     id,
		dialed: dialed,
		in:     make(chan *wire.Message, simConnBuffer),
	}
	t.conns[c.key()] = c
	return c
}

// demux routes inbound datagrams to connections, creating accepting-side
// connections on first contact.
func (t *Sim) demux(inbox <-chan netsim.Packet) {
	defer t.wg.Done()
	for {
		select {
		case <-t.stop:
			return
		case pkt, ok := <-inbox:
			if !ok {
				return
			}
			t.handle(pkt)
		}
	}
}

func (t *Sim) handle(pkt netsim.Packet) {
	if len(pkt.Data) < simHdrLen || pkt.Data[0] != simMagic {
		t.droppedFrames.Add(1)
		return
	}
	id := binary.BigEndian.Uint64(pkt.Data[1:9])
	flag := pkt.Data[9] &^ simFlagInitiator
	fromInitiator := pkt.Data[9]&simFlagInitiator != 0
	body := pkt.Data[simHdrLen:]

	t.mu.Lock()
	// A frame from the conn's initiator lands on our accepted side; a frame
	// from the acceptor is a reply on a conn we dialed.
	var c *simConn
	if fromInitiator {
		c = t.conns[connKey(pkt.From, id, false)]
	} else {
		c = t.conns[connKey(pkt.From, id, true)]
	}
	if c == nil && flag == simFlagData && fromInitiator {
		// First contact: create the accepting side if someone is listening.
		if t.listener == nil {
			t.mu.Unlock()
			t.droppedFrames.Add(1)
			return
		}
		c = t.newConnLocked(pkt.From, id, false)
		select {
		case t.listener.backlog <- c:
		default:
			// Backlog full: reject by dropping and forgetting.
			delete(t.conns, c.key())
			t.mu.Unlock()
			t.droppedFrames.Add(1)
			return
		}
	}
	t.mu.Unlock()
	if c == nil {
		if flag != simFlagFin { // late FINs for unknown conns are normal
			t.droppedFrames.Add(1)
		}
		return
	}

	switch flag {
	case simFlagFin:
		c.closeLocal(false)
	case simFlagData:
		t.deliver(c, body)
	default:
		t.droppedFrames.Add(1)
	}
}

// deliver decodes one encoded message and queues it on the connection,
// dropping (and counting) on decode failure or a full buffer.
func (t *Sim) deliver(c *simConn, body []byte) {
	m, err := t.codec.Decode(body)
	if err != nil {
		t.droppedFrames.Add(1)
		return
	}
	select {
	case c.in <- m:
	default:
		t.droppedFrames.Add(1)
	}
}

// connKey builds the map key for a connection. The dialed flag disambiguates
// the two ID spaces (ours vs the peer's).
func connKey(remote netsim.NodeID, id uint64, dialed bool) string {
	role := byte('a')
	if dialed {
		role = 'd'
	}
	return fmt.Sprintf("%s/%d/%c", remote, id, role)
}

type simListener struct {
	t       *Sim
	backlog chan *simConn

	closeOnce sync.Once
	done      chan struct{}
}

func (l *simListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *simListener) Addr() string { return string(l.t.local) }

func (l *simListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.t.mu.Lock()
		if l.t.listener == l {
			l.t.listener = nil
		}
		l.t.mu.Unlock()
	})
	return nil
}

type simConn struct {
	t      *Sim
	remote netsim.NodeID
	id     uint64
	dialed bool
	in     chan *wire.Message

	closeOnce sync.Once
	closed    atomic.Bool
}

func (c *simConn) key() string { return connKey(c.remote, c.id, c.dialed) }

func (c *simConn) header(flag byte) []byte {
	hdr := make([]byte, simHdrLen)
	hdr[0] = simMagic
	binary.BigEndian.PutUint64(hdr[1:9], c.id)
	if c.dialed {
		flag |= simFlagInitiator
	}
	hdr[9] = flag
	return hdr
}

func (c *simConn) Send(m *wire.Message) error {
	if c.closed.Load() {
		return ErrClosed
	}
	body, err := c.t.codec.Encode(m)
	if err != nil {
		return err
	}
	data := append(c.header(simFlagData), body...)
	if err := c.t.svc.Send(c.t.local, c.remote, data); err != nil {
		return fmt.Errorf("transport: sim send: %w", err)
	}
	return nil
}

func (c *simConn) Recv() (*wire.Message, error) {
	return recvQueue(c.in, &c.closed)
}

func (c *simConn) Close() error {
	c.closeLocal(true)
	return nil
}

// closeLocal tears the connection down; sendFin controls whether a FIN
// datagram is attempted (best effort — it may be lost).
func (c *simConn) closeLocal(sendFin bool) {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		wake(c.in)
		if sendFin {
			_ = c.t.svc.Send(c.t.local, c.remote, c.header(simFlagFin))
		}
		c.t.mu.Lock()
		delete(c.t.conns, c.key())
		c.t.mu.Unlock()
	})
}

func (c *simConn) LocalAddr() string  { return string(c.t.local) }
func (c *simConn) RemoteAddr() string { return string(c.remote) }
