// Package transport realizes the paper's network-independence feature
// (§3.2): the middleware runs over any medium that can implement the small
// Transport interface. Three implementations ship:
//
//   - mem: in-process channel pairs, for tests and single-process deployments,
//   - tcp: stdlib net over real sockets (wireline networks),
//   - sim: a lightweight connection layer over the netsim radio substrate
//     (standing in for Bluetooth/802.11/sensor radios).
//
// Everything above this package — discovery, transactions, QoS — is written
// against Transport only and cannot tell which network it is on, which is
// exactly the independence property the paper calls for.
package transport

import (
	"errors"

	"ndsm/internal/wire"
)

// Errors shared across transports.
var (
	ErrClosed         = errors.New("transport: closed")
	ErrAddrInUse      = errors.New("transport: address already in use")
	ErrConnectRefused = errors.New("transport: connection refused")
)

// Conn is a bidirectional, ordered message stream between two endpoints.
// Send is safe for concurrent use (pipelined callers send from many
// goroutines at once); Recv may run concurrently with Send but not with
// itself — a connection has one receive loop.
type Conn interface {
	// Send transmits one message. It does not wait for the peer to read it.
	//
	// Send must not retain m or any memory it references past the call:
	// implementations either serialize the message before returning or clone
	// it. Callers rely on this to recycle request envelopes through pools
	// the moment Send returns.
	//
	// On mem, Send after either side's Close returns ErrClosed, every time.
	// tcp and sim learn of the peer's Close only from the network, so there
	// a Send shortly after it may still succeed, and the message is lost.
	Send(m *wire.Message) error
	// Recv blocks for the next message. It returns ErrClosed after the
	// connection closes and all buffered messages are drained.
	//
	// The receiver owns the result — the connection keeps no reference to it,
	// and it shares no memory with any other message — and may wire.Recycle
	// it once nothing refers to it or to its Payload. Whoever does not
	// recycle may keep it for good.
	Recv() (*wire.Message, error)
	// Close releases the connection. Safe to call multiple times.
	Close() error
	// LocalAddr and RemoteAddr name the endpoints.
	LocalAddr() string
	RemoteAddr() string
}

// Listener accepts inbound connections on a bound address.
type Listener interface {
	// Accept blocks for the next inbound connection. It returns ErrClosed
	// after Close.
	Accept() (Conn, error)
	// Addr returns the bound address.
	Addr() string
	// Close stops accepting. Safe to call multiple times.
	Close() error
}

// Transport binds local addresses and connects to remote ones. The address
// syntax is transport-specific (a name for mem and sim, host:port for tcp).
type Transport interface {
	// Name identifies the transport kind ("mem", "tcp", "sim").
	Name() string
	// Listen binds addr and returns a listener.
	Listen(addr string) (Listener, error)
	// Dial connects to addr.
	Dial(addr string) (Conn, error)
	// Close releases all transport resources, closing every connection and
	// listener created through it.
	Close() error
}
