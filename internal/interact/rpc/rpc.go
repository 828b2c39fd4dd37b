// Package rpc is the client-server interaction style (§3.1, §3.6): typed
// request/reply with per-call deadlines over any Transport. It is the
// middleware's stand-in for the RPC/RMI technologies the paper surveys.
// Since the unified-endpoint refactor it is a thin facade over
// internal/endpoint: the correlation, demultiplexing, and timeout machinery
// live there, shared with discovery, the message queue, and the kernel.
package rpc

import (
	"errors"
	"fmt"
	"time"

	"ndsm/internal/endpoint"
	"ndsm/internal/simtime"
	"ndsm/internal/trace"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// RPC errors.
var (
	ErrTimeout       = errors.New("rpc: call timed out")
	ErrClosed        = errors.New("rpc: closed")
	ErrUnknownMethod = errors.New("rpc: unknown method")
)

// Handler processes one call's payload and returns the reply payload. payload
// is valid until the handler returns: the server reuses its memory for a later
// call once the reply is sent (see endpoint.Handler). The reply may be payload
// or a slice of it; copy what must outlive the call.
type Handler func(payload []byte) ([]byte, error)

// Server dispatches calls to registered handlers.
type Server struct {
	ep *endpoint.Server
}

// NewServer starts serving on the listener with unlimited admission. A
// request that carries trace context continues its trace under tracer (nil:
// untraced).
func NewServer(l transport.Listener, tracer *trace.Tracer) *Server {
	s := &Server{}
	s.ep = endpoint.NewServer(l, endpoint.ServerOptions{
		Kinds: []wire.Kind{wire.KindRequest},
		Interceptors: []endpoint.ServerInterceptor{
			endpoint.WithServerTracing(tracer, "rpc.serve"),
		},
		Fallback: func(req *wire.Message) (*wire.Message, error) {
			return nil, fmt.Errorf("%v: %s", ErrUnknownMethod, req.Topic)
		},
	})
	return s
}

// Handle registers a handler for a method name; it replaces any previous
// registration.
func (s *Server) Handle(method string, h Handler) {
	s.ep.Handle(method, func(req *wire.Message) (*wire.Message, error) {
		out, err := h(req.Payload)
		if err != nil {
			return nil, err
		}
		return endpoint.NewReply(out), nil
	})
}

// Close stops the server and waits for in-flight handlers.
func (s *Server) Close() error { return s.ep.Close() }

// Client issues calls over one connection, multiplexing any number of
// concurrent calls by correlation ID.
type Client struct {
	caller *endpoint.Caller
}

// Dial connects a client to an RPC server. Each call records an "rpc.call"
// span under tracer (nil: untraced, and the call takes the caller's direct
// path).
func Dial(tr transport.Transport, addr string, clock simtime.Clock, tracer *trace.Tracer) (*Client, error) {
	c := &Client{}
	caller, err := endpoint.NewCaller(tr, addr, endpoint.CallerOptions{
		Clock: clock,
		Eager: true,
		Interceptors: []endpoint.ClientInterceptor{
			endpoint.WithTracing(tracer, "rpc.call"),
		},
	})
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	c.caller = caller
	return c, nil
}

// Close shuts the client down; outstanding calls fail with ErrClosed.
func (c *Client) Close() error { return c.caller.Close() }

// Call invokes method with payload and waits up to timeout for the reply
// (timeout <= 0: wait forever).
func (c *Client) Call(method string, payload []byte, timeout time.Duration) ([]byte, error) {
	m, err := c.caller.Do(&endpoint.Call{Topic: method, Payload: payload, Timeout: callTimeout(timeout)})
	return translate(m, err, method, timeout)
}

// callTimeout maps a Call or GoCall timeout onto the endpoint's: <= 0 waits
// forever.
func callTimeout(timeout time.Duration) time.Duration {
	if timeout <= 0 {
		return endpoint.NoTimeout
	}
	return timeout
}

// translate maps endpoint outcomes onto the rpc error vocabulary.
func translate(m *wire.Message, err error, method string, timeout time.Duration) ([]byte, error) {
	if err != nil {
		if re, ok := endpoint.IsRemote(err); ok {
			return nil, fmt.Errorf("rpc: remote: %s", re.Msg)
		}
		if errors.Is(err, endpoint.ErrTimeout) {
			return nil, fmt.Errorf("%w: %s after %v", ErrTimeout, method, timeout)
		}
		if errors.Is(err, endpoint.ErrClosed) || errors.Is(err, endpoint.ErrUnavailable) {
			// An RPC client owns exactly one connection: once it is gone —
			// deliberately or not — the client is closed for business.
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("rpc: %w", err)
	}
	// The caller keeps the payload; the decoded shell goes back bare.
	out := m.Payload
	m.Payload = nil
	wire.Recycle(m)
	return out, nil
}

// GoCall starts method without waiting for the reply and returns its future:
// the pipelined form of Call. The request is on the wire when GoCall
// returns, so back-to-back GoCalls keep the connection full instead of
// alternating send/wait. Resolve with fut.Wait (endpoint error vocabulary).
func (c *Client) GoCall(method string, payload []byte, timeout time.Duration) *endpoint.Future {
	return c.caller.Go(&endpoint.Call{Topic: method, Payload: payload, Timeout: callTimeout(timeout)})
}
