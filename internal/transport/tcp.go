package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"ndsm/internal/wire"
)

// TCP is the wireline Transport over stdlib net. Messages are framed as in
// wire.AppendMessageFrame (length prefix + content-type tag + CRC32), so a
// single connection can interleave codecs; this transport encodes with the
// codec given at construction and decodes whatever tag each inbound frame
// carries.
//
// The send path coalesces: a connection's senders share a wire.BatchWriter
// that knows the connection's reader, so while replies are still owed to the
// peer (more frames received than sent — a pipelined server) many frames
// leave in one syscall, on one processor too; a connection with one request
// in flight, or one that only sends, writes each frame at once. A
// steady-state send allocates nothing. The receive path reads through a
// wire.FrameReader, slicing a batch apart out of one buffered read.
type TCP struct {
	codec wire.Codec

	mu        sync.Mutex
	closed    bool
	listeners []net.Listener
	conns     map[*tcpConn]struct{} // live connections; Close on one removes it
}

var _ Transport = (*TCP)(nil)

// NewTCP returns a TCP transport encoding outbound messages with codec
// (Binary if nil).
func NewTCP(codec wire.Codec) *TCP {
	if codec == nil {
		codec = wire.Binary{}
	}
	return &TCP{codec: codec, conns: make(map[*tcpConn]struct{})}
}

// Name implements Transport.
func (t *TCP) Name() string { return "tcp" }

// Listen implements Transport. Use "127.0.0.1:0" to get an ephemeral port;
// the listener's Addr reports the bound address.
func (t *TCP) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	t.mu.Unlock()

	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: tcp listen %s: %w", addr, err)
	}
	t.mu.Lock()
	t.listeners = append(t.listeners, nl)
	t.mu.Unlock()
	return &tcpListener{t: t, nl: nl}, nil
}

// Dial implements Transport.
func (t *TCP) Dial(addr string) (Conn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	t.mu.Unlock()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrConnectRefused, addr, err)
	}
	c, err := t.wrap(nc)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	listeners := t.listeners
	conns := make([]*tcpConn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, l := range listeners {
		_ = l.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	return nil
}

// wrap adopts nc as one of the transport's connections. A Dial or Accept in
// flight when Close took its snapshot lands here after it: then nc is closed
// and wrap returns ErrClosed, so no connection outlives the transport.
func (t *TCP) wrap(nc net.Conn) (*tcpConn, error) {
	c := &tcpConn{
		t:  t,
		nc: nc,
		fr: wire.NewFrameReader(nc),
		bw: wire.NewBatchWriter(nc, t.codec),
	}
	c.bw.ReplyTo(c.fr)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = nc.Close()
		return nil, ErrClosed
	}
	t.conns[c] = struct{}{}
	t.mu.Unlock()
	return c, nil
}

type tcpListener struct {
	t  *TCP
	nl net.Listener
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("transport: tcp accept: %w", err)
	}
	c, err := l.t.wrap(nc)
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (l *tcpListener) Addr() string { return l.nl.Addr().String() }

func (l *tcpListener) Close() error { return l.nl.Close() }

type tcpConn struct {
	t  *TCP
	nc net.Conn
	fr *wire.FrameReader
	bw *wire.BatchWriter

	closeOnce sync.Once
	closeErr  error
}

func (c *tcpConn) Send(m *wire.Message) error {
	if err := c.bw.Send(m); err != nil {
		if errors.Is(err, net.ErrClosed) {
			return ErrClosed
		}
		return fmt.Errorf("transport: tcp send: %w", err)
	}
	return nil
}

func (c *tcpConn) Recv() (*wire.Message, error) {
	m, err := c.fr.ReadMessage()
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	return m, nil
}

func (c *tcpConn) Close() error {
	c.closeOnce.Do(func() {
		c.closeErr = c.nc.Close()
		c.t.mu.Lock()
		delete(c.t.conns, c)
		c.t.mu.Unlock()
	})
	return c.closeErr
}

func (c *tcpConn) LocalAddr() string  { return c.nc.LocalAddr().String() }
func (c *tcpConn) RemoteAddr() string { return c.nc.RemoteAddr().String() }
