package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ndsm/internal/discovery"
	"ndsm/internal/endpoint"
	"ndsm/internal/qos"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transaction"
	"ndsm/internal/wire"
)

// Binding is a QoS-managed consumer-side attachment to the best feasible
// supplier for a spec. Every request is measured against the spec's benefit
// function; when the supplier fails or the achieved QoS violates the floor,
// the binding re-matches and rebinds transparently — the §3.4 graceful
// degradation loop.
type Binding struct {
	node    *Node
	spec    *qos.Spec
	tracker *qos.Tracker

	// QoS floor triggering proactive rebinds (see BindOptions).
	minRatio   float64
	minBenefit float64
	minSamples int

	mu     sync.Mutex
	peer   string
	caller *endpoint.Caller
	closed bool

	// Rebinds counts supplier migrations.
	Rebinds atomic.Int64
}

// BindOptions tunes a binding's degradation policy.
type BindOptions struct {
	// MinDeliveryRatio and MinBenefit define the achieved-QoS floor; when
	// either is violated (after MinSamples attempts) the next request
	// rebinds first. Zero values disable proactive rebinding.
	MinDeliveryRatio float64
	MinBenefit       float64
	MinSamples       int
}

// Bind discovers, selects, and connects the best supplier for spec.
func (n *Node) Bind(spec *qos.Spec, opts BindOptions) (*Binding, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrNodeClosed
	}
	n.mu.Unlock()

	b := &Binding{
		node:       n,
		spec:       spec,
		minRatio:   opts.MinDeliveryRatio,
		minBenefit: opts.MinBenefit,
		minSamples: opts.MinSamples,
		tracker:    qos.NewTracker(spec.Benefit),
	}
	if b.minSamples <= 0 {
		b.minSamples = 10
	}
	peer, err := b.selectPeer("")
	if err != nil {
		return nil, err
	}
	if err := b.connect(peer); err != nil {
		return nil, err
	}
	// Close may have run during the lookup and the dial: a binding it did
	// not see must not outlive the node.
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = b.caller.Close()
		return nil, ErrNodeClosed
	}
	n.bindings = append(n.bindings, b)
	n.mu.Unlock()
	return b, nil
}

// Peer returns the currently bound supplier address.
func (b *Binding) Peer() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peer
}

// Tracker returns the binding's achieved-QoS tracker.
func (b *Binding) Tracker() *qos.Tracker { return b.tracker }

// selectPeer ranks current candidates, excluding one peer (the failed one).
// With a health monitor attached, suspected peers are skipped too — unless
// that empties the candidate set, in which case the unfiltered set is used:
// the detector is allowed to be wrong (it is an unreliable failure detector
// by construction), so false suspicion must never strand the binding.
func (b *Binding) selectPeer(exclude string) (string, error) {
	candidates, err := b.node.registry.Lookup(&b.spec.Query)
	if err != nil {
		return "", fmt.Errorf("core: lookup %s: %w", b.spec.Query.Name, err)
	}
	filtered := candidates[:0]
	for _, c := range candidates {
		if c.Provider != exclude {
			filtered = append(filtered, c)
		}
	}
	if h := b.node.health; h != nil {
		live := make([]*svcdesc.Description, 0, len(filtered))
		for _, c := range filtered {
			if !h.Suspect(c.Provider) {
				live = append(live, c)
			}
		}
		if len(live) > 0 {
			filtered = live
		}
	}
	best := qos.Select(b.spec, filtered, b.node.clock.Now())
	if best == nil {
		return "", fmt.Errorf("%w: %s", ErrNoSupplier, b.spec.Query.Name)
	}
	return best.Provider, nil
}

// connect replaces the binding's connection with a fresh caller to peer. A
// binding closed in the meantime keeps no caller: the new one is closed.
func (b *Binding) connect(peer string) error {
	// The breaker sits outermost so fast-fails never pollute the metrics
	// interceptor's call counts or latency histogram; tracing wraps both so
	// the call span also records breaker fast-fails.
	interceptors := []endpoint.ClientInterceptor{
		endpoint.WithMetrics(b.node.metrics, "core.binding"),
	}
	if h := b.node.health; h != nil {
		interceptors = append([]endpoint.ClientInterceptor{
			endpoint.WithBreaker(h, peer, b.node.metrics, "core.binding"),
		}, interceptors...)
	}
	interceptors = append([]endpoint.ClientInterceptor{
		endpoint.WithTracing(b.node.tracer, "binding.call"),
	}, interceptors...)
	if b.node.reqlog != nil {
		// Outermost of all: the wide event sees the final outcome, total
		// latency, and the trace context the tracing interceptor injected.
		interceptors = append([]endpoint.ClientInterceptor{
			endpoint.WithWideEvents(endpoint.WideEventOptions{
				Recorder: b.node.reqlog,
				Peer:     peer,
			}),
		}, interceptors...)
	}
	caller, err := endpoint.NewCaller(b.node.tr, peer, endpoint.CallerOptions{
		Clock:        b.node.clock,
		Eager:        true,
		Interceptors: interceptors,
		TopicLanes:   b.node.topicLanes,
	})
	if err != nil {
		return fmt.Errorf("core: dial %s: %w", peer, err)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		_ = caller.Close()
		return ErrNodeClosed
	}
	if b.caller != nil {
		_ = b.caller.Close()
	}
	b.caller = caller
	b.peer = peer
	b.mu.Unlock()
	return nil
}

// Rebind re-matches, excluding the current peer, and reconnects. The
// decision is traced: the rebind span records the old and new peer and
// parents under whatever request, suspicion event or hand-off triggered it.
func (b *Binding) Rebind() error {
	b.mu.Lock()
	old := b.peer
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return ErrNodeClosed
	}
	return b.rebindFrom(old)
}

// rebindFrom is Rebind with the peer to leave named: the new peer is never
// old, even when the binding left old since the caller looked.
func (b *Binding) rebindFrom(old string) error {
	if t := b.node.tracer; t != nil {
		sp, done := t.Scope("binding.rebind")
		sp.SetAttr("service", b.spec.Query.Name)
		sp.SetAttr("from", old)
		err := b.move(old)
		if err == nil {
			sp.SetAttr("to", b.Peer())
		}
		sp.SetError(err)
		done()
		return err
	}
	return b.move(old)
}

// move is rebindFrom's untraced body. Achieved QoS is per supplier, so the
// tracker resets with the move.
func (b *Binding) move(old string) error {
	peer, err := b.selectPeer(old)
	if err != nil {
		return err
	}
	if err := b.connect(peer); err != nil {
		return err
	}
	b.tracker.Reset()
	b.Rebinds.Add(1)
	return nil
}

// Request performs one on-demand interaction with the bound supplier. The
// deadline comes from the spec's benefit curve; delivery and delay feed the
// tracker. On a connection failure the binding rebinds once and retries;
// when the achieved QoS has fallen below the BindOptions floor, the binding
// proactively re-matches before sending.
//
// The whole interaction — suspicion-triggered rebind, the wire call, and any
// failure-triggered retry — runs under one "binding.request" span, so a
// degraded request reads as a single subtree in the timeline.
func (b *Binding) Request(payload []byte) ([]byte, error) {
	if t := b.node.tracer; t != nil {
		sp, done := t.Scope("binding.request")
		sp.SetAttr("service", b.spec.Query.Name)
		sp.SetAttr("peer", b.Peer())
		out, err := b.request(payload)
		sp.SetError(err)
		done()
		return out, err
	}
	return b.request(payload)
}

// request is Request's untraced body.
func (b *Binding) request(payload []byte) ([]byte, error) {
	if h := b.node.health; h != nil {
		if peer := b.Peer(); peer != "" && h.Suspect(peer) {
			// Proactive degradation handling, one step earlier than the QoS
			// floor: the liveness layer suspects the bound supplier, so
			// re-match before burning a request (and its timeout) on it. A
			// failed rebind is not fatal — suspicion may be false, and the
			// request below will tell.
			// A cached resolver would re-serve the corpse for the rest of its
			// lease; drop those results so the rebind's lookup re-resolves.
			discovery.Invalidate(b.node.registry, peer)
			_ = b.Rebind()
		}
	}
	if b.violated() {
		// Proactive degradation handling: the current supplier is not
		// delivering the demanded QoS even though it is still reachable.
		// A failed proactive rebind is not fatal — the current supplier may
		// still serve this request; the QoS floor simply stays violated.
		_ = b.Rebind()
	}
	out, peer, err := b.requestOnce(payload)
	if err == nil {
		return out, nil
	}
	var remoteErr *remoteError
	if errors.As(err, &remoteErr) {
		// The supplier answered with an application error: not a QoS
		// failure, no rebind.
		return nil, err
	}
	if peer != b.Peer() {
		// A rebind on another goroutine (a hand-off, say) closed the caller
		// this call went out on. The supplier did not fail: send again on
		// the new one.
		if out, peer, err = b.requestOnce(payload); err == nil || errors.As(err, &remoteErr) {
			return out, err
		}
	}
	// Transport-level failure: degrade gracefully by rebinding. Cached
	// lookup results naming the failed peer are dropped first — rebinding
	// through a cache that still lists the corpse wastes the lease.
	discovery.Invalidate(b.node.registry, peer)
	b.tracker.ObserveFailure()
	if rerr := b.Rebind(); rerr != nil {
		return nil, fmt.Errorf("core: request failed (%v) and rebind failed: %w", err, rerr)
	}
	out, _, err = b.requestOnce(payload)
	return out, err
}

// RequestStatic performs one exchange without the graceful-degradation
// machinery: no rebinding, no re-matching. It models a middleware-less
// client and is the baseline experiment E4 measures the kernel against.
func (b *Binding) RequestStatic(payload []byte) ([]byte, error) {
	out, _, err := b.requestOnce(payload)
	if err != nil {
		var remoteErr *remoteError
		if !errors.As(err, &remoteErr) {
			b.tracker.ObserveFailure()
		}
		return nil, err
	}
	return out, nil
}

// remoteError wraps an application-level error returned by the supplier.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return "core: remote: " + e.msg }

func (b *Binding) violated() bool {
	if b.minRatio == 0 && b.minBenefit == 0 {
		return false
	}
	return b.tracker.Violated(b.minRatio, b.minBenefit, b.minSamples)
}

// requestOnce performs a single exchange through the binding's endpoint
// caller and names the peer it went to. The deadline derives from the
// spec's benefit curve and propagates on the wire; delivery and delay feed
// the QoS tracker.
func (b *Binding) requestOnce(payload []byte) ([]byte, string, error) {
	b.mu.Lock()
	caller, peer := b.caller, b.peer
	if b.closed {
		b.mu.Unlock()
		return nil, peer, ErrNodeClosed
	}
	b.mu.Unlock()

	call := endpoint.Call{
		Topic:   b.spec.Query.Name,
		Src:     b.node.name,
		Dst:     peer,
		Payload: payload,
		Timeout: b.callTimeout(),
	}
	m, err := caller.Do(&call)
	if err != nil {
		if re, ok := endpoint.IsRemote(err); ok {
			return nil, peer, &remoteError{msg: re.Msg}
		}
		if errors.Is(err, endpoint.ErrTimeout) {
			return nil, peer, b.timedOut()
		}
		return nil, peer, err
	}
	// The caller timed the call once, for its interceptors and for this.
	b.tracker.ObserveDelivery(call.Elapsed())
	return takePayload(m), peer, nil
}

// callTimeout is the endpoint timeout that carries the binding's QoS deadline,
// where its benefit curve reaches zero.
func (b *Binding) callTimeout() time.Duration {
	t := b.spec.Benefit.ZeroAfter
	if t == 0 {
		t = b.spec.Benefit.FullUntil
	}
	if t <= 0 {
		return endpoint.NoTimeout
	}
	return t
}

// timedOut is the error of a call that outlived the QoS deadline. It names
// the peer and the deadline afresh, so an async call need not carry them.
func (b *Binding) timedOut() error {
	return fmt.Errorf("core: request to %s timed out after %v", b.Peer(), b.callTimeout())
}

// takePayload returns a reply's payload, which the application keeps, and
// hands the decoded shell back for reuse without it (wire.Recycle).
func takePayload(m *wire.Message) []byte {
	p := m.Payload
	m.Payload = nil
	wire.Recycle(m)
	return p
}

// RequestAsync starts one exchange without waiting for the reply: the
// request is pipelined onto the wire before RequestAsync returns, so a
// consumer can keep a window of requests in flight over the one supplier
// connection. Like RequestStatic it skips the graceful-degradation
// machinery (rebinding decisions are inherently synchronous); the QoS
// tracker still observes the outcome when the reply is awaited.
func (b *Binding) RequestAsync(payload []byte) *AsyncReply {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return &AsyncReply{}
	}
	caller, peer := b.caller, b.peer
	b.mu.Unlock()

	r := &AsyncReply{b: b}
	// A pre-send failure resolves r.fut as failed, so Wait reports it and
	// the tracker observes it there, like any transport-level failure.
	_ = caller.Start(&endpoint.Call{
		Topic:   b.spec.Query.Name,
		Src:     b.node.name,
		Dst:     peer,
		Payload: payload,
		Timeout: b.callTimeout(),
	}, &r.fut)
	return r
}

// AsyncReply is a pending RequestAsync: a promise for the supplier's reply.
// It holds its future by value and no copy of what its binding or its call's
// pooled waiter holds — the future reports how long the call took — so an
// async request costs one 128 B object besides its payload.
type AsyncReply struct {
	b   *Binding // nil: the binding was closed before the call
	fut endpoint.Future

	once    sync.Once
	payload []byte
	outErr  error
}

// Wait blocks for the reply (bounded by the binding's QoS deadline fixed at
// issue time) and feeds the QoS tracker exactly once: a delivery observation
// with the true request-to-reply latency, or a failure for transport-level
// errors. An ErrClosed from a caller the binding has since left (a rebind
// on another goroutine, or Close closed it under the call) is a local act
// that says nothing about the supplier, and feeds nothing; one from the
// caller still in use means its connection is gone, and counts. Wait is
// idempotent.
func (r *AsyncReply) Wait() ([]byte, error) {
	r.once.Do(func() {
		if r.b == nil {
			r.outErr = ErrNodeClosed
			return
		}
		m, err := r.fut.Wait()
		if err != nil {
			if re, ok := endpoint.IsRemote(err); ok {
				// The supplier answered: an application error, not a QoS
				// failure.
				r.outErr = &remoteError{msg: re.Msg}
				return
			}
			if errors.Is(err, endpoint.ErrClosed) && r.b.leftCaller(r.fut.Caller()) {
				r.outErr = err
				return
			}
			r.b.tracker.ObserveFailure()
			if errors.Is(err, endpoint.ErrTimeout) {
				r.outErr = r.b.timedOut()
				return
			}
			r.outErr = err
			return
		}
		r.b.tracker.ObserveDelivery(r.fut.Elapsed())
		r.payload = takePayload(m) // once: r.fut is waited on nowhere else
	})
	return r.payload, r.outErr
}

// leftCaller reports whether the binding no longer calls through c: it
// rebound or closed since a call went out on c.
func (b *Binding) leftCaller(c *endpoint.Caller) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed || b.caller != c
}

// Poll turns the binding into a continuous (or intermittent-with-prediction)
// transaction: a pump issues Request at the schedule's pace and hands every
// result to deliver. Failures that the rebinding machinery cannot absorb are
// reported to deliver with a nil payload and the error. Stop the pump by
// calling the returned stop function.
func (b *Binding) Poll(schedule transaction.Schedule, request []byte, deliver func([]byte, error)) (stop func()) {
	pump := transaction.NewPump(b.node.clock, schedule,
		func() ([]byte, bool) {
			b.mu.Lock()
			closed := b.closed
			b.mu.Unlock()
			return request, !closed
		},
		func(payload []byte) error {
			out, err := b.Request(payload)
			deliver(out, err)
			return err
		})
	return pump.Stop
}

// Close releases the binding and drops it from its node's live bindings.
func (b *Binding) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	caller := b.caller
	b.mu.Unlock()
	b.node.forget(b)
	if caller != nil {
		return caller.Close()
	}
	return nil
}
