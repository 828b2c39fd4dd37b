package endpoint

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ndsm/internal/simtime"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// CallerOptions tunes a Caller.
type CallerOptions struct {
	// Clock drives call timeouts and deadline stamping (default real time).
	Clock simtime.Clock
	// Timeout is the default per-call timeout (0: wait forever).
	Timeout time.Duration
	// Eager dials at construction so NewCaller fails fast on a bad address.
	// Otherwise the first call dials lazily.
	Eager bool
	// Redial re-dials on the next call after a connection failure. Without
	// it a broken connection makes every subsequent call fail with ErrClosed
	// (the classic RPC-client lifecycle).
	Redial bool
	// Interceptors wrap the round-trip, outermost first.
	Interceptors []ClientInterceptor
	// Lane is the default admission lane for calls that leave Call.Lane at
	// LaneDefault — a caller owned by a bulk pipeline (telemetry, batch
	// transfer) classifies all its traffic once here.
	Lane Lane
	// TopicLanes classifies calls by topic when Call.Lane is unset:
	// explicit call lane > topic table > Lane. Resolution happens before
	// the interceptor chain runs, so retry, metrics, and wide-event
	// recording all see the effective lane.
	TopicLanes *LaneTable
	// OnRecv observes every message taken off the wire (nil: none). It may
	// keep the message's Payload, Headers and strings, but not the message:
	// a message no call waits for is recycled once OnRecv returns.
	OnRecv func(*wire.Message)
}

// waiter is one pending call parked in the demux map. Waiters are pooled;
// every send into ch happens while holding Caller.mu, in the same critical
// section that removes the waiter from the map — so once a waiter is
// unreachable from the map, no further send can occur and the channel can be
// safely drained and recycled.
type waiter struct {
	ch      chan waitResult
	id      uint64        // the call's correlation ID, its key in the map
	gen     uint64        // connection generation the call was sent on
	topic   string        // the call's, for the errors it settles into
	timeout time.Duration // the call's (0: none); its deadline is start+timeout
	start   time.Time     // when the call's attempt began, by the caller's clock
	timer   simtime.Timer // a blocking Wait's deadline timer, stopped between calls
}

// sweepInterval is how many calls go by between deadline sweeps of the
// waiter map, resolving futures that were never waited on. Power of two.
const sweepInterval = 256

type waitResult struct {
	m   *wire.Message
	err error
}

// Caller is the client half of the endpoint: one connection, any number of
// concurrent calls demultiplexed by correlation ID. Safe for concurrent use.
type Caller struct {
	tr     transport.Transport
	addr   string
	opts   CallerOptions
	clock  simtime.Clock
	invoke ClientFunc

	nextID     atomic.Uint64
	waiterPool sync.Pool // of *waiter: see getWaiter

	mu      sync.Mutex
	conn    transport.Conn
	gen     uint64 // bumped on every successful dial
	dialed  bool   // at least one dial attempt happened
	waiters map[uint64]*waiter
	closed  bool
	wg      sync.WaitGroup

	shedMu sync.Mutex
	sheds  map[shedKey]*ShedError // see shedError
}

// shedKey names the *ShedError a shed reply settles into.
type shedKey struct {
	topic string
	lane  Lane
}

// maxSheds bounds the shed errors a caller keeps. Past it the table starts
// over, so a caller that cycles through many topics does not grow with them.
const maxSheds = 64

// NewCaller builds a caller for addr over tr. With Eager set the dial
// happens (and can fail) here; otherwise the first call dials.
func NewCaller(tr transport.Transport, addr string, opts CallerOptions) (*Caller, error) {
	clock := simtime.OrReal(opts.Clock)
	c := &Caller{
		tr:      tr,
		addr:    addr,
		opts:    opts,
		clock:   clock,
		waiters: make(map[uint64]*waiter),
	}
	// Nil interceptors do nothing; without them a caller that has none left
	// takes Do's direct path.
	c.opts.Interceptors = slices.DeleteFunc(slices.Clone(opts.Interceptors), func(i ClientInterceptor) bool { return i == nil })
	c.invoke = chainClient(c.opts.Interceptors, c.roundtrip)
	if opts.Eager {
		c.mu.Lock()
		_, _, err := c.ensureConnLocked()
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Do performs one call through the interceptor chain. The chain works on a
// copy of call, so what an interceptor changes in it (the trace headers, a
// retry count) does not leak into a Call the caller reuses; Do itself only
// resolves call.Lane. The copy comes from a pool and is cleared and put back
// when the chain returns, which is why an interceptor must not keep it (see
// ClientInterceptor). A caller with no interceptors makes the round trip
// directly. Either way call can stay on its caller's stack.
//
// Do times the call once, for every layer: see Call.Elapsed.
func (c *Caller) Do(call *Call) (*wire.Message, error) {
	c.begin(call)
	if len(c.opts.Interceptors) == 0 {
		return c.roundtrip(call)
	}
	cc := callPool.Get().(*chainCall)
	cc.call = *call
	// Stamped before the chain, so the interceptors' own time and every
	// retry are inside what the layers above read.
	cc.start = c.clock.Now()
	cc.call.start = &cc.start
	m, err := c.invoke(&cc.call)
	call.elapsed = cc.call.elapsed
	*cc = chainCall{}
	callPool.Put(cc)
	return m, err
}

// begin readies call to be issued afresh: it resolves the effective lane and
// clears the stopwatch and retry count a reused Call kept from its last issue.
func (c *Caller) begin(call *Call) {
	call.Lane = c.laneFor(call)
	call.attempts, call.elapsed, call.start = 0, 0, nil
}

// chainCall is the copy of a Call that Do hands its interceptor chain, and
// the instant Do stamped before the chain ran, which the copy points at.
type chainCall struct {
	call  Call
	start time.Time
}

// callPool holds the chainCalls Do hands its interceptor chain.
var callPool = sync.Pool{New: func() any { return new(chainCall) }}

// laneFor resolves a call's effective admission lane: an explicit Call.Lane
// wins, then the caller's topic table, then the caller default. Idempotent,
// so re-resolving a reused Call is harmless. Every call resolves it once, in
// begin, before the chain and the wire see it.
func (c *Caller) laneFor(call *Call) Lane {
	if call.Lane != LaneDefault {
		return call.Lane
	}
	if lane, ok := c.opts.TopicLanes.Lookup(call.Topic); ok {
		return lane
	}
	return c.opts.Lane
}

// Close shuts the caller down; outstanding calls fail with ErrClosed.
func (c *Caller) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	var err error
	if conn != nil {
		err = conn.Close()
	}
	c.wg.Wait()
	return err
}

// ensureConnLocked returns the live connection, dialing if allowed.
func (c *Caller) ensureConnLocked() (transport.Conn, uint64, error) {
	if c.closed {
		return nil, 0, ErrClosed
	}
	if c.conn != nil {
		return c.conn, c.gen, nil
	}
	if c.dialed && !c.opts.Redial {
		// The one connection this caller will ever have is gone.
		return nil, 0, ErrClosed
	}
	c.dialed = true
	conn, err := c.tr.Dial(c.addr)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: dial %s: %v", ErrUnavailable, c.addr, err)
	}
	c.conn = conn
	c.gen++
	gen := c.gen
	c.wg.Add(1)
	go c.demux(conn, gen)
	return conn, gen, nil
}

// dropConnLocked discards the connection after a failure so the next call
// can redial (when allowed). Only the generation that failed is dropped —
// a concurrent caller may already have re-dialed.
func (c *Caller) dropConnLocked(gen uint64) {
	if c.gen == gen && c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
}

// demux owns conn's receive side: it routes replies to parked waiters by
// correlation ID and, when the connection dies, fails every waiter of its
// generation.
func (c *Caller) demux(conn transport.Conn, gen uint64) {
	defer c.wg.Done()
	for {
		m, err := conn.Recv()
		if err != nil {
			c.mu.Lock()
			c.dropConnLocked(gen)
			failure := fmt.Errorf("%w: connection lost: %v", ErrUnavailable, err)
			if c.closed {
				failure = ErrClosed
			}
			for id, w := range c.waiters {
				if w.gen != gen {
					continue
				}
				delete(c.waiters, id)
				w.ch <- waitResult{err: failure}
			}
			c.mu.Unlock()
			return
		}
		if c.opts.OnRecv != nil {
			c.opts.OnRecv(m)
		}
		c.mu.Lock()
		w := c.waiters[m.Corr]
		if w != nil {
			// Removal and delivery share one critical section (the buffered
			// send cannot block: a mapped waiter has never been sent to), so
			// an unmapped waiter is guaranteed fully delivered — the invariant
			// waiter pooling rests on.
			delete(c.waiters, m.Corr)
			w.ch <- waitResult{m: m}
		}
		c.mu.Unlock()
		if w == nil {
			// Uncorrelated messages (stale replies from timed-out calls, a
			// pub/sub client's events) end here.
			c.recycle(m)
		}
	}
}

// recycle hands back a decoded message nothing will read again (see
// wire.Recycle). An OnRecv observer may have kept its payload, so with one
// installed the shell goes back bare.
func (c *Caller) recycle(m *wire.Message) {
	if c.opts.OnRecv != nil {
		m.Payload = nil
	}
	wire.Recycle(m)
}

// shedError returns the error a shed of topic on lane settles into. The first
// such shed makes it and every later one shares it, so an overloaded peer's
// rejections cost the caller no allocation; a ShedError is read-only.
func (c *Caller) shedError(topic string, lane Lane) *ShedError {
	key := shedKey{topic, lane}
	c.shedMu.Lock()
	defer c.shedMu.Unlock()
	e := c.sheds[key]
	if e == nil {
		if c.sheds == nil {
			c.sheds = make(map[shedKey]*ShedError)
		} else if len(c.sheds) >= maxSheds {
			clear(c.sheds)
		}
		e = &ShedError{Topic: topic, Lane: lane}
		c.sheds[key] = e
	}
	return e
}

// Go starts call without waiting for the reply and returns its Future,
// pipelining any number of requests onto the one connection. With OneWay set
// the returned future resolves as soon as the frame is accepted for sending
// (a shared pre-resolved future on success — the fire-and-forget path
// performs zero allocations in steady state); otherwise the 64 B Future is the
// call's one heap object beyond what Do costs (its constants are in the waiter).
//
// Go bypasses the client interceptor chain: retry, breaker, and tracing
// interceptors are synchronous round-trip policies and apply only to Do.
// Pre-send failures (closed caller, failed dial, send error) come back as an
// already-failed future.
func (c *Caller) Go(call *Call) *Future {
	c.begin(call)
	fut := resolvedFuture // what a one-way call returns; start leaves it alone
	if !call.OneWay {
		fut = new(Future)
	}
	if _, err := c.start(call, fut); err != nil {
		return failedFuture(err)
	}
	return fut
}

// Start is Go for a Future that lives inside an object of the caller's own —
// core.AsyncReply holds one by value — so an asynchronous call is one heap
// object, not two, holding none of the call's constants. It issues call and
// fills fut in: as the future for the reply, as one already resolved for a
// one-way call, or as one already failed when the request never left, whose
// Wait returns the error Start returns.
// fut must not be in use; Start keeps no reference to it.
func (c *Caller) Start(call *Call, fut *Future) error {
	c.begin(call)
	_, err := c.start(call, fut)
	if err != nil || call.OneWay {
		*fut = Future{c: c, done: true, err: err}
	}
	return err
}

// roundtrip is the terminal ClientFunc: one correlated exchange — a start
// plus an immediate wait. Its future lives in this frame: nobody else can see
// it, so it is neither allocated nor locked. It adds the attempt's time to
// call.elapsed: the future's one clock read when the reply settles it, a
// read of its own when nothing does.
func (c *Caller) roundtrip(call *Call) (*wire.Message, error) {
	var fut Future
	began, err := c.start(call, &fut)
	if err != nil || call.OneWay {
		if !began.IsZero() {
			call.elapsed += c.clock.Since(began)
		}
		return nil, err
	}
	m, err := fut.waitLocked()
	call.elapsed += fut.elapsed
	return m, err
}

// start issues the request on the wire and, unless the call is one-way,
// fills fut in as the future for its reply, and returns the instant the
// attempt began (zero when nothing times it). It keeps no reference to fut,
// so a caller may pass the address of a local.
func (c *Caller) start(call *Call, fut *Future) (time.Time, error) {
	timeout := call.Timeout
	if timeout == 0 {
		timeout = c.opts.Timeout
	}
	if timeout < 0 {
		timeout = 0 // NoTimeout: wait forever
	}
	// The call's one stopwatch, which its deadline is measured on too: Do
	// stamped it before the chain, and an attempt begins where the one
	// before it ended, as WithRetry retries at once; otherwise the call
	// starts here. A one-way call without a deadline has nothing to time.
	var begin time.Time
	if call.start != nil {
		begin = call.start.Add(call.elapsed)
	} else if !call.OneWay || timeout > 0 {
		begin = c.clock.Now()
	}
	var deadline time.Time
	if timeout > 0 {
		// Deadline propagation: the server (and anything downstream) sees
		// how long this call stays worth serving.
		deadline = begin.Add(timeout)
	}

	c.mu.Lock()
	conn, gen, err := c.ensureConnLocked()
	if err != nil {
		c.mu.Unlock()
		return begin, err
	}
	id := c.nextID.Add(1)
	var w *waiter
	if !call.OneWay {
		w = c.getWaiter()
		w.id, w.gen, w.topic, w.timeout, w.start = id, gen, call.Topic, timeout, begin
		c.waiters[id] = w
		*fut = Future{c: c, w: w}
	}
	if id%sweepInterval == 0 {
		// Amortized cleanup for futures nobody waits on: without it an
		// abandoned future's waiter would sit in the map until the connection
		// dies.
		c.sweepLocked(c.clock.Now())
	}
	c.mu.Unlock()

	kind := call.Kind
	if kind == 0 {
		if call.OneWay {
			kind = wire.KindData
		} else {
			kind = wire.KindRequest
		}
	}
	req := getMsg()
	req.ID = id
	req.Kind = kind
	req.Src = call.Src
	req.Dst = call.Dst
	req.Topic = call.Topic
	req.Headers = call.Headers
	if call.Lane != LaneDefault { // begin resolved it; unstamped reads as default
		req.Priority = call.Lane.priority()
	}
	req.Payload = call.Payload
	req.Deadline = deadline
	err = conn.Send(req)
	putMsg(req) // transports must not retain it (see transport.Conn)
	if err != nil {
		if w != nil && c.cancelWaiter(w) {
			c.putWaiter(w)
		}
		c.mu.Lock()
		c.dropConnLocked(gen)
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return begin, ErrClosed
		}
		return begin, fmt.Errorf("%w: send %s: %v", ErrUnavailable, call.Topic, err)
	}
	return begin, nil
}

// cancelWaiter removes w from the demux map if it is still there, and
// reports whether it did. A false return means the waiter was already
// resolved: its result is guaranteed buffered on w.ch.
func (c *Caller) cancelWaiter(w *waiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.waiters[w.id] == w {
		delete(c.waiters, w.id)
		return true
	}
	return false
}

// sweepLocked fails every waiter whose deadline has passed. Caller holds
// c.mu; sends are part of the removal critical section (see waiter).
func (c *Caller) sweepLocked(now time.Time) {
	for id, w := range c.waiters {
		if w.timeout > 0 && now.Sub(w.start) > w.timeout {
			delete(c.waiters, id)
			w.ch <- waitResult{err: fmt.Errorf("%w: deadline passed before reply", ErrTimeout)}
		}
	}
}
