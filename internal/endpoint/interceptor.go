package endpoint

import (
	"errors"
	"fmt"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/trace"
	"ndsm/internal/wire"
)

// WithRetry re-attempts a transport-level failure once, at once: the
// reconnect-once idiom. Peer-reported errors and deliberate shutdown are
// never retried, and a timed-out call only with retryTimeouts, since it may
// still execute on the peer: only idempotent protocols should set it (see
// Retryable). reg counts retries under "<name>.retries" and calls that still
// failed under "<name>.retries_exhausted" (nil: counted nowhere).
func WithRetry(retryTimeouts bool, reg *obs.Registry, name string) ClientInterceptor {
	retries := reg.Counter(name + ".retries")
	exhausted := reg.Counter(name + ".retries_exhausted")
	return func(next ClientFunc) ClientFunc {
		return func(call *Call) (*wire.Message, error) {
			m, err := next(call)
			if !Retryable(err, retryTimeouts) {
				return m, err
			}
			retries.Inc(1)
			call.attempts++
			m, err = next(call)
			if Retryable(err, retryTimeouts) {
				exhausted.Inc(1)
			}
			return m, err
		}
	}
}

// Breaker is the circuit-breaker surface WithBreaker drives, keyed by peer
// address (*health.Monitor satisfies it). Allow gates the call; every
// allowed call is concluded with exactly one report.
type Breaker interface {
	// Allow returns nil when a call to peer may proceed, an error when the
	// circuit is open.
	Allow(peer string) error
	// ReportSuccess concludes a call the peer answered (including
	// application-level errors — an answer is proof of life).
	ReportSuccess(peer string)
	// ReportFailure concludes a call that failed at the transport level.
	ReportFailure(peer string)
}

// WithBreaker gates calls through a per-peer circuit breaker: open circuits
// fail fast with ErrCircuitOpen (no wire traffic, no timeout burned), and
// call outcomes feed the breaker. peer keys the circuit; empty means each
// call's Dst. reg counts rejections under "<name>.breaker_fast_fails" (nil:
// counted nowhere).
//
// Outcome classification: transport-level failures (unavailable, timeout)
// count against the peer; an answered call — success, RemoteError, or a
// shed rejection — counts as proof of life even when it is an application
// failure, because the liveness question is "is the peer there", not "did
// the request succeed".
func WithBreaker(b Breaker, peer string, reg *obs.Registry, name string) ClientInterceptor {
	fastFails := reg.Counter(name + ".breaker_fast_fails")
	return func(next ClientFunc) ClientFunc {
		return func(call *Call) (*wire.Message, error) {
			key := peer
			if key == "" {
				key = call.Dst
			}
			if err := b.Allow(key); err != nil {
				fastFails.Inc(1)
				return nil, fmt.Errorf("%w: %s: %v", ErrCircuitOpen, key, err)
			}
			m, err := next(call)
			switch {
			case err == nil:
				b.ReportSuccess(key)
			case errors.Is(err, ErrUnavailable) || errors.Is(err, ErrTimeout):
				b.ReportFailure(key)
			case errors.Is(err, ErrClosed):
				// Deliberate local shutdown says nothing about the peer.
			default:
				// The peer answered: remote error, shed, or any typed reply.
				b.ReportSuccess(key)
			}
			return m, err
		}
	}
}

// WithMetrics instruments calls in reg under the given name prefix:
// "<name>.calls", "<name>.errors", "<name>.timeouts", and the latency
// histogram "<name>.latency_ms". With no registry there is nothing to count,
// and the interceptor is nil: left out of the chain. The latency is the
// time the rest of the chain took, read off the call's stopwatch (see
// Call.Elapsed) rather than the clock: inside WithRetry, each attempt's.
func WithMetrics(r *obs.Registry, name string) ClientInterceptor {
	if r == nil {
		return nil
	}
	calls := r.Counter(name + ".calls")
	errs := r.Counter(name + ".errors")
	timeouts := r.Counter(name + ".timeouts")
	latency := r.Histogram(name + ".latency_ms")
	return func(next ClientFunc) ClientFunc {
		return func(call *Call) (*wire.Message, error) {
			before := call.elapsed // where an earlier attempt ended, if any
			m, err := next(call)
			calls.Inc(1)
			latency.Observe(millis(call.elapsed - before))
			if err != nil {
				errs.Inc(1)
				if Retryable(err, true) && !Retryable(err, false) {
					timeouts.Inc(1)
				}
			}
			return m, err
		}
	}
}

// WithTracing records a causal span per call and injects its context into
// the call's headers, so the wire message carries trace-id/span-id to the
// peer regardless of codec. The span parents under the tracer's ambient span
// (an enclosing binding.request, discovery round, or server dispatch) and is
// itself ambient while the call runs, so downstream hops — retries, radio
// sends — nest beneath it. A nil tracer — a component built without one —
// leaves the interceptor out of the chain, so an untraced call pays nothing.
func WithTracing(t *trace.Tracer, name string) ClientInterceptor {
	if t == nil {
		return nil
	}
	return func(next ClientFunc) ClientFunc {
		return func(call *Call) (*wire.Message, error) {
			sp := t.StartSpan(name, trace.Context{})
			sp.SetAttr("topic", call.Topic)
			if call.Dst != "" {
				sp.SetAttr("dst", call.Dst)
			}
			// Copy-on-inject: the caller's header map stays untouched.
			hdrs := make(map[string]string, len(call.Headers)+2)
			for k, v := range call.Headers {
				hdrs[k] = v
			}
			call.Headers = trace.Inject(sp.Context(), hdrs)
			release := sp.Activate()
			m, err := next(call)
			release()
			sp.SetError(err)
			sp.Finish()
			return m, err
		}
	}
}

// WithServerTracing continues the trace a request carried in its headers: a
// server-side span parented on the client span across the wire, ambient
// while the handler runs so the handler's own downstream calls nest beneath
// it. Requests without trace context stay untraced (tracing is opt-in per
// call chain, not per server). A nil tracer leaves the interceptor out of
// the chain.
func WithServerTracing(t *trace.Tracer, name string) ServerInterceptor {
	if t == nil {
		return nil
	}
	return func(next Handler) Handler {
		return func(req *wire.Message) (*wire.Message, error) {
			parent := trace.Extract(req.Headers)
			if !parent.Valid() {
				return next(req)
			}
			sp := t.StartSpan(name, parent)
			sp.SetAttr("topic", req.Topic)
			if req.Src != "" {
				sp.SetAttr("src", req.Src)
			}
			release := sp.Activate()
			m, err := next(req)
			release()
			sp.SetError(err)
			sp.Finish()
			return m, err
		}
	}
}

// millis is d in the milliseconds latency histograms are kept in.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
