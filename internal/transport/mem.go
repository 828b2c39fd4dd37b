package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ndsm/internal/wire"
)

// memConnBuffer is the per-direction queue depth of an in-memory connection.
// It is deliberately small so back-pressure resembles a socket send buffer.
const memConnBuffer = 64

// Fabric is a process-wide switchboard connecting mem transports to each
// other. Multiple MemTransports sharing a Fabric can dial one another by
// address; separate Fabrics are fully isolated (useful to model separate
// networks in tests).
type Fabric struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	closed    bool
}

// NewFabric returns an empty switchboard.
func NewFabric() *Fabric {
	return &Fabric{listeners: make(map[string]*memListener)}
}

// Mem is the in-process Transport implementation.
type Mem struct {
	fabric *Fabric

	mu        sync.Mutex
	closed    bool
	listeners []*memListener
	conns     []*memConn
}

var _ Transport = (*Mem)(nil)

// NewMem returns a mem transport attached to the fabric.
func NewMem(fabric *Fabric) *Mem {
	return &Mem{fabric: fabric}
}

// Name implements Transport.
func (t *Mem) Name() string { return "mem" }

// Listen implements Transport.
func (t *Mem) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	t.mu.Unlock()

	l := &memListener{
		addr:    addr,
		fabric:  t.fabric,
		backlog: make(chan *memConn, 16),
		done:    make(chan struct{}),
	}
	t.fabric.mu.Lock()
	if t.fabric.closed {
		t.fabric.mu.Unlock()
		return nil, ErrClosed
	}
	if _, busy := t.fabric.listeners[addr]; busy {
		t.fabric.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	t.fabric.listeners[addr] = l
	t.fabric.mu.Unlock()

	t.mu.Lock()
	t.listeners = append(t.listeners, l)
	t.mu.Unlock()
	return l, nil
}

// Dial implements Transport.
func (t *Mem) Dial(addr string) (Conn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	t.mu.Unlock()

	t.fabric.mu.Lock()
	l, ok := t.fabric.listeners[addr]
	t.fabric.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnectRefused, addr)
	}

	client, server := newMemPair("dial:"+addr, addr)
	if !l.enqueue(server) {
		return nil, fmt.Errorf("%w: %s", ErrConnectRefused, addr)
	}
	t.mu.Lock()
	t.conns = append(t.conns, client)
	t.mu.Unlock()
	return client, nil
}

// Close implements Transport.
func (t *Mem) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	listeners := t.listeners
	conns := t.conns
	t.mu.Unlock()
	for _, l := range listeners {
		_ = l.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	return nil
}

type memListener struct {
	addr    string
	fabric  *Fabric
	backlog chan *memConn

	mu     sync.Mutex
	closed bool

	closeOnce sync.Once
	done      chan struct{}
}

// enqueue hands a freshly dialed server-side conn to the listener. The mutex
// makes enqueue-vs-close atomic, so a conn can never be stranded in the
// backlog of a closed listener (which would leave the dialer's side open
// forever with nobody serving it).
func (l *memListener) enqueue(c *memConn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	select {
	case l.backlog <- c:
		return true
	default:
		return false // backlog full: refuse
	}
}

func (l *memListener) Accept() (Conn, error) {
	// Drain any backlog left from before Close; only then report closed.
	select {
	case c := <-l.backlog:
		return c, nil
	default:
	}
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *memListener) Addr() string { return l.addr }

func (l *memListener) Close() error {
	l.closeOnce.Do(func() {
		l.mu.Lock()
		l.closed = true
		// Reject conns nobody will ever accept.
		for {
			select {
			case c := <-l.backlog:
				_ = c.Close()
			default:
				l.mu.Unlock()
				close(l.done)
				l.fabric.mu.Lock()
				if l.fabric.listeners[l.addr] == l {
					delete(l.fabric.listeners, l.addr)
				}
				l.fabric.mu.Unlock()
				return
			}
		}
	})
	return nil
}

// memConn is one side of an in-memory duplex pipe. In steady state a hand-off
// is one channel operation each way: Send puts a clone on out, Recv takes it
// off in. Closing, the rare case, is not selected on there: it is a flag both
// ends read, plus a nil wake-up for a Recv parked on an empty queue.
type memConn struct {
	local  string
	remote string
	out    chan *wire.Message
	in     chan *wire.Message
	shut   *memShut // shared by both ends
}

// memShut is the closed state both ends of a pipe share: the first Close of
// either side closes the pipe both ways.
type memShut struct {
	once   sync.Once
	closed atomic.Bool   // read by every Send, and by a Recv that finds its queue empty
	done   chan struct{} // closed with the flag, for a Send blocked on a full queue
}

// newMemPair builds both ends of a pipe.
func newMemPair(dialerAddr, listenerAddr string) (dialer, listener *memConn) {
	ab := make(chan *wire.Message, memConnBuffer)
	ba := make(chan *wire.Message, memConnBuffer)
	shut := &memShut{done: make(chan struct{})}
	dialer = &memConn{local: dialerAddr, remote: listenerAddr, out: ab, in: ba, shut: shut}
	listener = &memConn{local: listenerAddr, remote: dialerAddr, out: ba, in: ab, shut: shut}
	return dialer, listener
}

// Send returns ErrClosed once either side has closed; a message it accepted
// before that is still delivered.
func (c *memConn) Send(m *wire.Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if c.shut.closed.Load() {
		return ErrClosed
	}
	// Clone so sender-side mutation after Send doesn't race the receiver;
	// a real network would have serialized the bytes already.
	m = m.Clone()
	select {
	case c.out <- m:
		return nil
	default:
	}
	// The queue is full: wait for room, as a socket write waits for its send
	// buffer, or for either side to close.
	select {
	case c.out <- m:
		return nil
	case <-c.shut.done:
		wire.Recycle(m)
		return ErrClosed
	}
}

func (c *memConn) Recv() (*wire.Message, error) {
	return recvQueue(c.in, &c.shut.closed)
}

// recvQueue is Recv for a conn whose messages all arrive on in: it returns
// what is queued, in order, and ErrClosed only once in is empty and closed is
// set. Whoever sets closed then offers in a nil (wake), which recvQueue skips;
// if in is full, the receiver finds the flag once it has drained it.
func recvQueue(in chan *wire.Message, closed *atomic.Bool) (*wire.Message, error) {
	for {
		var m *wire.Message
		select {
		case m = <-in:
		default:
			if closed.Load() {
				return nil, ErrClosed
			}
			m = <-in
		}
		if m != nil {
			return m, nil
		}
	}
}

// wake offers q the nil that ends a recvQueue parked on it, without waiting.
func wake(q chan *wire.Message) {
	select {
	case q <- nil:
	default:
	}
}

func (c *memConn) Close() error {
	s := c.shut
	s.once.Do(func() {
		s.closed.Store(true)
		close(s.done)
		wake(c.in)
		wake(c.out)
	})
	return nil
}

func (c *memConn) LocalAddr() string  { return c.local }
func (c *memConn) RemoteAddr() string { return c.remote }
