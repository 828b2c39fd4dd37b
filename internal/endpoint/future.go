package endpoint

import (
	"fmt"
	"sync"
	"time"

	"ndsm/internal/simtime"
	"ndsm/internal/wire"
)

// Future is the handle for a call started with Caller.Go: a promise for the
// reply. Wait blocks until the reply arrives, the call's deadline passes, or
// the connection dies, and is idempotent — every call returns the same
// outcome. A Future whose Wait is never called does not leak: the caller's
// periodic deadline sweep (or connection teardown) resolves it internally.
//
// A Future is safe for concurrent use. The call's ID, topic, timeout and start
// live in its pooled waiter, read before the waiter goes back to the pool, so
// the handle is 64 B: one size class.
type Future struct {
	c *Caller

	mu      sync.Mutex
	w       *waiter // nil once resolved
	done    bool
	elapsed time.Duration
	m       *wire.Message
	err     error
}

// resolvedFuture is the shared already-succeeded future returned by one-way
// sends, keeping the fire-and-forget fast path allocation-free.
var resolvedFuture = &Future{done: true}

// failedFuture wraps an immediate (pre-send) failure as a resolved Future.
func failedFuture(err error) *Future {
	return &Future{done: true, err: err}
}

// bornResolved reports whether f was built already resolved (resolvedFuture,
// failedFuture): such a future has no caller and never changes, so Wait and
// Done read it without taking f.mu — every one-way sender in the process
// shares resolvedFuture.
func (f *Future) bornResolved() bool { return f.c == nil }

// Wait blocks until the call resolves and returns the reply. The deadline is
// the one fixed when the call was issued: a Wait that starts late gets only
// the remaining time, and a Wait after the deadline returns ErrTimeout
// immediately unless the reply already arrived. On timeout the connection
// stays up — the late reply is discarded by the demux loop.
func (f *Future) Wait() (*wire.Message, error) {
	if f.bornResolved() {
		return f.m, f.err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.waitLocked()
}

// waitLocked is Wait for a caller that holds f.mu — or that, like roundtrip,
// has shared f with nobody. Unlike Wait, whose mutex leaks its receiver, it
// lets escape analysis keep such a future on the caller's stack.
func (f *Future) waitLocked() (*wire.Message, error) {
	if f.done {
		return f.m, f.err
	}
	if f.w.timeout == 0 {
		// Nothing to time: the reply, or the teardown that fails the call,
		// is the only way out.
		f.settleLocked(<-f.w.ch)
		return f.m, f.err
	}
	// A pipelining caller usually finds the reply already there. Take it
	// before arming a timer at all.
	select {
	case r := <-f.w.ch:
		f.settleLocked(r)
		return f.m, f.err
	default:
	}
	// The deadline is an instant on the caller's clock, which fires a timer
	// armed past it at once: a Wait that starts late reads no clock.
	deadline := f.w.arm(f.c.clock, f.w.start.Add(f.w.timeout))
	select {
	case r := <-f.w.ch:
		f.w.timer.Stop()
		f.settleLocked(r)
	case <-deadline: // received: the timer holds no tick and is reused as it is
		f.expireLocked()
	}
	return f.m, f.err
}

// arm returns the channel of w's deadline timer, set to fire at at: made by
// the first Wait that needs one, reset by later Waits on the pooled waiter.
func (w *waiter) arm(clock simtime.Clock, at time.Time) <-chan time.Time {
	if w.timer == nil {
		w.timer = clock.Timer(at)
	} else {
		w.timer.Reset(at)
	}
	return w.timer.C()
}

// expireLocked resolves the future as timed out — unless a result raced in,
// in which case the result wins. Caller holds f.mu.
func (f *Future) expireLocked() {
	if f.c.cancelWaiter(f.w) {
		// We removed the demux entry, so no result was (or ever will be)
		// delivered: the call timed out.
		f.settleLocked(waitResult{err: fmt.Errorf("%w: %s after %v", ErrTimeout, f.w.topic, f.w.timeout)})
		return
	}
	// The entry was already removed by the demux, sweep, or teardown — all of
	// which buffer the result before releasing the lock, so this receive
	// cannot block.
	f.settleLocked(<-f.w.ch)
}

// Elapsed is how long the call took, from its start to the Wait that settled
// it: zero before then, and for a call that never left or was one-way.
func (f *Future) Elapsed() time.Duration {
	if f.bornResolved() {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.elapsed
}

// Caller is the Caller that issued the call: nil for a future that Go
// returned already resolved, which has none. A caller that holds several
// Callers tells by it whether a call's ErrClosed came from one it closed.
func (f *Future) Caller() *Caller { return f.c }

// settleLocked records the outcome, translating error replies, and the time
// the call took — the clock read that times it for every layer above — and
// returns the waiter to the pool. Caller holds f.mu; the waiter must no
// longer be reachable from the demux map.
func (f *Future) settleLocked(r waitResult) {
	f.elapsed = f.c.clock.Since(f.w.start)
	m, err := r.m, r.err
	if err == nil {
		switch m.Kind {
		case wire.KindShed:
			err = f.c.shedError(f.w.topic, laneOf(m))
		case wire.KindError:
			err = &RemoteError{Topic: f.w.topic, Msg: string(m.Payload)}
		}
	}
	if err != nil && m != nil {
		f.c.recycle(m) // the error holds a copy of what it needs
		m = nil
	}
	f.m, f.err, f.done = m, err, true
	f.c.putWaiter(f.w)
	f.w = nil
}

// getWaiter takes a waiter from c's pool. The pool recycles waiters (and
// their reply channels and deadline timers) across c's calls: the demux
// discipline guarantees at most one buffered send per checkout, and putWaiter
// drains it, and waitLocked stops a timer it armed unless its tick was
// received, so a recycled waiter holds neither a result nor a tick. The pool
// is c's own because a waiter's timer is c's clock's.
func (c *Caller) getWaiter() *waiter {
	if w, ok := c.waiterPool.Get().(*waiter); ok {
		return w
	}
	return &waiter{ch: make(chan waitResult, 1)}
}

func (c *Caller) putWaiter(w *waiter) {
	select {
	case <-w.ch: // drop an undelivered result (cancelled before Wait)
	default:
	}
	w.id, w.gen, w.topic, w.timeout, w.start = 0, 0, "", 0, time.Time{}
	c.waiterPool.Put(w)
}

// msgPool recycles the envelopes this package sends: a caller's requests, a
// server's replies and rejections. A message is returned to the pool as soon
// as Send accepts it — transports must not retain messages past Send (see
// transport.Conn).
//
// It is not wire's pool of decoded messages (wire.Recycle), and the two are
// not to be made one: these envelopes borrow their payload and come back
// carrying no buffer, those come back with the buffer they were decoded into.
// Mixed, the bare shells would be drawn for decodes and the buffered ones for
// envelopes, and the buffers would churn instead of being reused. A decoded
// shell whose payload the application kept goes back to wire's pool bare, so
// that pool loses no buffer it had.
var msgPool = sync.Pool{
	New: func() any { return new(wire.Message) },
}

func getMsg() *wire.Message { return msgPool.Get().(*wire.Message) }

// NewReply returns a KindReply envelope carrying payload, for a Handler to
// return. It comes from the pool the server puts it back in once the reply
// is sent (see Handler), so a reply costs no allocation. payload is borrowed,
// not copied: it may be the request's own payload or a slice of it.
func NewReply(payload []byte) *wire.Message {
	m := getMsg()
	m.Kind = wire.KindReply
	m.Payload = payload
	return m
}

func putMsg(m *wire.Message) {
	*m = wire.Message{}
	msgPool.Put(m)
}
