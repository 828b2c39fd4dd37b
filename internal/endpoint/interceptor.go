package endpoint

import (
	"errors"
	"fmt"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/trace"
	"ndsm/internal/wire"
)

// RetryPolicy parameterizes WithRetry: a bounded number of immediate
// re-attempts (the reconnect-once idiom). Only transport-level failures are
// retried; peer-reported errors and deliberate shutdown never are (see
// Retryable).
type RetryPolicy struct {
	// Max is the number of additional attempts after the first (default 2).
	Max int
	// RetryTimeouts also retries calls that timed out. Off by default: a
	// timed-out call may still execute on the peer, so only idempotent
	// protocols should set it.
	RetryTimeouts bool
}

// WithRetry re-attempts transport-level failures at once, up to p.Max times.
// reg (nil: the default registry) counts retries under "<name>.retries" and
// exhausted calls under "<name>.retries_exhausted".
func WithRetry(p RetryPolicy, reg *obs.Registry, name string) ClientInterceptor {
	if p.Max <= 0 {
		p.Max = 2
	}
	retries := obs.Or(reg).Counter(name + ".retries")
	exhausted := obs.Or(reg).Counter(name + ".retries_exhausted")
	return func(next ClientFunc) ClientFunc {
		return func(call *Call) (*wire.Message, error) {
			m, err := next(call)
			for attempt := 0; attempt < p.Max && Retryable(err, p.RetryTimeouts); attempt++ {
				retries.Inc(1)
				call.attempts++
				m, err = next(call)
			}
			if err != nil && Retryable(err, p.RetryTimeouts) {
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
// call's Dst. reg (nil: the default registry) counts rejections under
// "<name>.breaker_fast_fails".
//
// Outcome classification: transport-level failures (unavailable, timeout)
// count against the peer; an answered call — success, RemoteError, or a
// shed rejection — counts as proof of life even when it is an application
// failure, because the liveness question is "is the peer there", not "did
// the request succeed".
func WithBreaker(b Breaker, peer string, reg *obs.Registry, name string) ClientInterceptor {
	fastFails := obs.Or(reg).Counter(name + ".breaker_fast_fails")
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

// WithMetrics instruments calls in reg (nil: the default registry) under the
// given name prefix: "<name>.calls", "<name>.errors", "<name>.timeouts", and
// the latency histogram "<name>.latency_ms".
func WithMetrics(reg *obs.Registry, name string, clock simtime.Clock) ClientInterceptor {
	if clock == nil {
		clock = simtime.Real{}
	}
	r := obs.Or(reg)
	calls := r.Counter(name + ".calls")
	errs := r.Counter(name + ".errors")
	timeouts := r.Counter(name + ".timeouts")
	latency := r.Histogram(name + ".latency_ms")
	return func(next ClientFunc) ClientFunc {
		return func(call *Call) (*wire.Message, error) {
			start := clock.Now()
			m, err := next(call)
			calls.Inc(1)
			latency.Observe(float64(clock.Now().Sub(start)) / float64(time.Millisecond))
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
// sends — nest beneath it. ref resolves the tracer per call (nil follows
// trace.SetDefault); when it yields no tracer the interceptor is a
// zero-allocation pass-through, which keeps the disabled hot path inside the
// BenchmarkInteractRPC band.
func WithTracing(ref *trace.Ref, name string) ClientInterceptor {
	return func(next ClientFunc) ClientFunc {
		return func(call *Call) (*wire.Message, error) {
			t := ref.Get()
			if t == nil {
				return next(call)
			}
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
// call chain, not per server). ref resolves the tracer per dispatch; nil
// follows trace.SetDefault.
func WithServerTracing(ref *trace.Ref, name string) ServerInterceptor {
	return func(next Handler) Handler {
		return func(req *wire.Message) (*wire.Message, error) {
			t := ref.Get()
			if t == nil {
				return next(req)
			}
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

// WithServerMetrics instruments dispatches in reg (nil: the default
// registry): "<name>.requests", "<name>.errors", and the handler latency
// histogram "<name>.latency_ms".
func WithServerMetrics(reg *obs.Registry, name string, clock simtime.Clock) ServerInterceptor {
	if clock == nil {
		clock = simtime.Real{}
	}
	r := obs.Or(reg)
	requests := r.Counter(name + ".requests")
	errs := r.Counter(name + ".errors")
	latency := r.Histogram(name + ".latency_ms")
	return func(next Handler) Handler {
		return func(req *wire.Message) (*wire.Message, error) {
			start := clock.Now()
			m, err := next(req)
			requests.Inc(1)
			latency.Observe(float64(clock.Now().Sub(start)) / float64(time.Millisecond))
			if err != nil {
				errs.Inc(1)
			}
			return m, err
		}
	}
}
