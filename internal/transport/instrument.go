package transport

import (
	"sync/atomic"

	"ndsm/internal/obs"
	"ndsm/internal/wire"
)

// Instrument wraps a transport so every connection it dials or accepts
// reports message and byte counts to r, under "transport.<name>.sent_msgs",
// ".sent_bytes", ".recv_msgs", ".recv_bytes", plus the live-connection gauge
// "transport.<name>.open_conns". Byte counts are payload sizes — the
// envelope overhead is codec-specific and the paper's message-cost
// experiments count payload traffic. With no registry there is nothing to
// count, and t comes back unwrapped.
func Instrument(t Transport, r *obs.Registry) Transport {
	if r == nil {
		return t
	}
	prefix := "transport." + t.Name()
	return &instrumented{
		inner:     t,
		sentMsgs:  r.Counter(prefix + ".sent_msgs"),
		sentBytes: r.Counter(prefix + ".sent_bytes"),
		recvMsgs:  r.Counter(prefix + ".recv_msgs"),
		recvBytes: r.Counter(prefix + ".recv_bytes"),
		openConns: r.Gauge(prefix + ".open_conns"),
	}
}

type instrumented struct {
	inner     Transport
	sentMsgs  *obs.Counter
	sentBytes *obs.Counter
	recvMsgs  *obs.Counter
	recvBytes *obs.Counter
	openConns *obs.Gauge
}

func (t *instrumented) Name() string { return t.inner.Name() }
func (t *instrumented) Close() error { return t.inner.Close() }

func (t *instrumented) Listen(addr string) (Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &instrumentedListener{inner: l, t: t}, nil
}

func (t *instrumented) Dial(addr string) (Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return t.wrap(c), nil
}

func (t *instrumented) wrap(c Conn) Conn {
	t.openConns.Add(1)
	return &instrumentedConn{inner: c, t: t}
}

type instrumentedListener struct {
	inner Listener
	t     *instrumented
}

func (l *instrumentedListener) Accept() (Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrap(c), nil
}

func (l *instrumentedListener) Addr() string { return l.inner.Addr() }
func (l *instrumentedListener) Close() error { return l.inner.Close() }

type instrumentedConn struct {
	inner  Conn
	t      *instrumented
	closed atomic.Bool
}

func (c *instrumentedConn) Send(m *wire.Message) error {
	err := c.inner.Send(m)
	if err == nil {
		c.t.sentMsgs.Inc(1)
		c.t.sentBytes.Inc(int64(len(m.Payload)))
	}
	return err
}

func (c *instrumentedConn) Recv() (*wire.Message, error) {
	m, err := c.inner.Recv()
	if err == nil {
		c.t.recvMsgs.Inc(1)
		c.t.recvBytes.Inc(int64(len(m.Payload)))
	}
	return m, err
}

func (c *instrumentedConn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.t.openConns.Add(-1)
	}
	return c.inner.Close()
}

func (c *instrumentedConn) LocalAddr() string  { return c.inner.LocalAddr() }
func (c *instrumentedConn) RemoteAddr() string { return c.inner.RemoteAddr() }
