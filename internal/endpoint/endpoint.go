// Package endpoint is the middleware's single request/reply substrate: one
// generic correlated-exchange engine over any transport.Transport, shared by
// the discovery registry protocol, the clients of all four interaction styles
// (and the RPC and tuple-space servers), and the kernel's consumer bindings —
// layers that once each hand-rolled a pending-map, a demux loop and timeouts.
//
// The engine has two halves:
//
//   - Caller: dials an address, multiplexes any number of concurrent calls
//     over one connection by correlation ID, applies per-call deadlines, and
//     (optionally) re-dials after a connection failure.
//   - Server: accepts connections, dispatches each inbound request to a
//     topic handler on a handler goroutine of its own, reused between
//     requests (no head-of-line blocking; reused because a new goroutine
//     would outgrow and copy its first stack while encoding every reply),
//     and writes the correlated reply.
//
// Both halves run their traffic through a composable interceptor chain —
// bounded immediate retry, metrics, deadline propagation,
// trace logging — so policy lives in middleware, not in every protocol
// (the "policy-free middleware" argument of Dearle et al.).
package endpoint

import (
	"errors"
	"fmt"
	"time"

	"ndsm/internal/wire"
)

// Endpoint errors. ErrUnavailable marks transport-level failures (dial,
// send, connection broken) — the retryable class; ErrTimeout marks an
// expired call deadline; ErrClosed means the caller or server was shut down
// deliberately and retrying is pointless; ErrCircuitOpen means a breaker
// rejected the call before it touched the wire — fail fast, pick another
// peer, do not retry the same one.
var (
	ErrClosed      = errors.New("endpoint: closed")
	ErrTimeout     = errors.New("endpoint: call timed out")
	ErrUnavailable = errors.New("endpoint: peer unavailable")
	ErrCircuitOpen = errors.New("endpoint: circuit open")
)

// NoTimeout as a Call.Timeout means "wait forever", overriding any caller
// default.
const NoTimeout time.Duration = -1

// RemoteError is an application-level error reply (a KindError message from
// the peer). It is never retried: the request was delivered and the peer
// answered.
type RemoteError struct {
	Topic string
	Msg   string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("endpoint: remote error on %s: %s", e.Topic, e.Msg)
}

// Retryable implements RetryableError: a remote error is terminal — the
// request was delivered, executed, and answered.
func (e *RemoteError) Retryable() bool { return false }

// IsRemote reports whether err is (or wraps) a peer-reported error and
// returns it.
func IsRemote(err error) (*RemoteError, bool) {
	// A type assertion down the Unwrap chain: errors.As would move its target
	// to the heap on every call, and callers ask on every failed call.
	for ; err != nil; err = errors.Unwrap(err) {
		if re, ok := err.(*RemoteError); ok {
			return re, true
		}
	}
	return nil, false
}

// ShedError is a load-shed rejection (a wire.KindShed reply): the peer was at
// its admission bound and refused the request before dispatching it. Unlike
// RemoteError the request never executed, so retrying is safe even for
// non-idempotent protocols.
//
// A Caller settles every shed of one topic and lane into the same ShedError,
// so the value is shared: read it, never change it.
type ShedError struct {
	Topic string
	// Lane is the admission lane the shed was charged to, echoed by the
	// server in the reject's Priority (LaneDefault when it is unstamped).
	Lane Lane
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("endpoint: %s shed by overloaded peer (lane %s)", e.Topic, e.Lane)
}

// Retryable implements RetryableError.
func (e *ShedError) Retryable() bool { return true }

// IsShed reports whether err is (or wraps) a load-shed rejection.
func IsShed(err error) bool {
	for ; err != nil; err = errors.Unwrap(err) { // not errors.As: see IsRemote
		if _, ok := err.(*ShedError); ok {
			return true
		}
	}
	return false
}

// RetryableError lets an error type declare its own retry class, overriding
// the sentinel-based classification: shed rejections are retryable even
// though the peer answered; remote errors are terminal even when wrapped.
type RetryableError interface {
	error
	Retryable() bool
}

// Retryable reports whether err is a failure worth retrying: typed errors
// decide for themselves (RetryableError), unavailability is always
// retryable, timeouts only if the caller opted in (WithRetry's
// retryTimeouts). ErrClosed (deliberate shutdown) and
// ErrCircuitOpen (breaker rejection — the next attempt would be rejected
// identically) are never retried.
func Retryable(err error, retryTimeouts bool) bool {
	if err == nil || errors.Is(err, ErrClosed) || errors.Is(err, ErrCircuitOpen) {
		return false
	}
	var re RetryableError
	if errors.As(err, &re) {
		return re.Retryable()
	}
	if errors.Is(err, ErrTimeout) {
		return retryTimeouts
	}
	return errors.Is(err, ErrUnavailable)
}

// Call describes one request/reply exchange. Its three one-byte fields sit
// together, after the rest, so that with Do's plumbing a Call is 112 B, the
// size class it had without: a program that allocates one per request pays
// nothing for the stopwatch (TestCallSize).
type Call struct {
	// Topic names the method, registry operation, or queue verb addressed.
	Topic string
	// Src and Dst optionally stamp the envelope's addresses.
	Src, Dst string
	// Headers carries extension metadata.
	Headers map[string]string
	// Payload is the opaque request body.
	Payload []byte
	// Timeout bounds the exchange: 0 uses the caller's default, NoTimeout
	// waits forever. The deadline also propagates on the wire (Message
	// .Deadline) so servers and downstream hops can shed doomed work.
	Timeout time.Duration
	// Kind is the request's message kind (default wire.KindRequest).
	Kind wire.Kind
	// Lane is the call's admission priority class, stamped once here at the
	// endpoint layer into the envelope's Priority byte — like trace context,
	// in-band — so bounded servers along the path can isolate control traffic
	// from bulk load. The zero value (LaneDefault, or the caller's default
	// lane) leaves the request unstamped.
	Lane Lane
	// OneWay marks the call fire-and-forget: no reply is awaited and no
	// demux state is parked. The default kind becomes wire.KindData, and the
	// server must list that kind in ServerOptions.OneWayKinds to dispatch it.
	// The future returned by Caller.Go resolves as soon as the frame is
	// accepted for sending.
	OneWay bool

	// attempts counts extra attempts WithRetry spent on this call, read by
	// the wide-event interceptor outside it. start and elapsed are the
	// call's one stopwatch: start points at the instant Do stamped before
	// its interceptor chain ran (nil outside the chain), and each attempt's
	// round trip adds its own time to elapsed, which so reads the time from
	// the call's start to the end of its latest attempt. The layers above
	// the round trip — metrics, wide events, the binding's QoS tracker —
	// read these instead of the clock. Interceptor-chain plumbing, not
	// caller state: Do, Go and Start reset all three.
	attempts int32
	elapsed  time.Duration
	start    *time.Time
}

// Elapsed is how long the call's last Do took: from just before its
// interceptor chain ran to the reply or failure that ended it, retries
// included. It is zero for a call that never reached the round trip, and
// for a one-way call made with no interceptors and no timeout, which nothing
// times.
func (c *Call) Elapsed() time.Duration { return c.elapsed }

// ClientFunc performs a call: the terminal one is the caller's round-trip;
// interceptors wrap it.
type ClientFunc func(*Call) (*wire.Message, error)

// ClientInterceptor wraps a ClientFunc with cross-cutting behavior (retry,
// metrics, tracing). Interceptors compose outermost-first; a nil one is left
// out of the chain. An interceptor may change the *Call it is given but must
// not keep it after it returns: Caller.Do clears that copy and reuses it for a
// later call.
type ClientInterceptor func(next ClientFunc) ClientFunc

// Handler serves one inbound request and returns the reply message. The
// server fills in correlation, topic, and source; the handler chooses the
// reply kind (KindReply, KindAck, ...) and payload. Returning an error sends
// a KindError reply with the error text as payload.
//
// The server owns the reply a handler returns: once it is sent, the server
// zeroes it and pools it for a later NewReply. So a handler returns a message
// it will not touch again — NewReply's, a new one, or req itself — never one
// it shares or keeps.
//
// req and req.Payload are valid until the handler returns, and belong to the
// server: once the reply is sent it hands both back for the next decode
// (wire.Recycle). The reply may alias them — its payload may be req.Payload
// or a slice of it, it may be req itself — because the server has encoded or
// cloned the reply before it reuses the request. Copy what must outlive the
// call; a handler that put another slice into req.Payload has given that
// slice away. Strings (req.Topic, req.Src) and the req.Headers map are never
// reused and may be kept. The same holds for interceptors and the Fallback.
type Handler func(req *wire.Message) (*wire.Message, error)

// ServerInterceptor wraps a Handler with cross-cutting behavior.
// Interceptors compose outermost-first; a nil one is left out of the chain.
type ServerInterceptor func(next Handler) Handler

// chainClient composes interceptors around the terminal ClientFunc (NewCaller
// has dropped the nil ones).
func chainClient(interceptors []ClientInterceptor, terminal ClientFunc) ClientFunc {
	out := terminal
	for i := len(interceptors) - 1; i >= 0; i-- {
		out = interceptors[i](out)
	}
	return out
}

// chainServer composes interceptors around the terminal Handler, skipping
// nil ones.
func chainServer(interceptors []ServerInterceptor, terminal Handler) Handler {
	out := terminal
	for i := len(interceptors) - 1; i >= 0; i-- {
		if interceptors[i] != nil {
			out = interceptors[i](out)
		}
	}
	return out
}
