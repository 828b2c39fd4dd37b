// Package simtime provides a clock abstraction so that the middleware and the
// network simulator can run either against the wall clock or against a
// deterministic virtual clock driven by tests and benchmarks.
//
// Using a virtual clock keeps simulation experiments reproducible and lets
// the test suite exercise long simulated horizons (hours of network lifetime)
// in microseconds of real time.
//
// Timers come from the clock too: a library that waits for a deadline arms
// Clock.Timer, and one that works in rounds runs Every, so no code outside
// this package asks which clock it was given.
package simtime

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the time source used throughout the middleware. Implementations
// must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns the time elapsed on this clock since t, an instant it
	// returned from Now. It is the cheaper read for timing an interval: on
	// the wall clock it reads only the monotonic clock.
	Since(t time.Time) time.Duration
	// Timer arms a timer that fires at the instant at on this clock, at once
	// if at is not after now.
	Timer(at time.Time) Timer
}

// Timer is a one-shot timer armed at an absolute instant, like a time.Timer.
// A deadline timer is stopped when what it guards wins, and can be re-armed.
// Use one from a single goroutine at a time.
type Timer interface {
	// C is the channel the timer ticks on. It may change on Reset, so read it
	// after arming.
	C() <-chan time.Time
	// Stop stops the timer and reports whether it was pending; false means it
	// already fired or was stopped. Do not drain C after a false Stop: Reset
	// is safe without it.
	Stop() bool
	// Reset re-arms the timer to fire at at. The timer must be pending,
	// stopped, or have had its tick received; then no tick of an earlier
	// arming arrives after Reset.
	Reset(at time.Time)
}

// Real is a Clock backed by the wall clock.
type Real struct{}

var _ Clock = Real{}

// OrReal returns c, or the wall clock if c is nil: the default of every
// component's clock.
func OrReal(c Clock) Clock {
	if c == nil {
		return Real{}
	}
	return c
}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Timer implements Clock.
func (Real) Timer(at time.Time) Timer { return &realTimer{t: time.NewTimer(time.Until(at))} }

// realTimer is a time.Timer behind the Timer interface.
//
// go.mod's go 1.22 gives every timer the channel of Go before 1.23
// (asynctimerchan=1): the runtime sends a tick after it releases the timer,
// so Stop can report false while the tick is still on its way, and a drain
// after Stop can miss it; the tick would then end the next arming at once. So
// a timer that Stop finds fired is dropped, never drained, and the next Reset
// makes a fresh one: an allocation only when a Stop races the deadline, or
// stops a timer twice.
type realTimer struct {
	t     *time.Timer
	spent bool // Stop found t fired: its tick may land after a Reset
}

func (r *realTimer) C() <-chan time.Time { return r.t.C }

func (r *realTimer) Stop() bool {
	stopped := r.t.Stop()
	r.spent = !stopped
	return stopped
}

func (r *realTimer) Reset(at time.Time) {
	if r.spent {
		r.t, r.spent = time.NewTimer(time.Until(at)), false
		return
	}
	r.t.Reset(time.Until(at))
}

// vtimer is a timer on a virtual clock, pending while it sits in the clock's
// heap.
type vtimer struct {
	v  *Virtual
	at time.Time
	ch chan time.Time // capacity one, so firing never blocks Advance
	// seq breaks ties so the heap pops timers in registration order.
	seq uint64
	i   int // index in v.timers, -1 when not pending
}

// timerHeap orders timers by deadline, then registration order.
type timerHeap []*vtimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].i, h[j].i = i, j
}
func (h *timerHeap) Push(x interface{}) {
	t := x.(*vtimer)
	t.i = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.i = -1
	*h = old[:n-1]
	return t
}

// Virtual is a deterministic Clock that only moves when Advance is called.
// The zero value is not usable; construct with NewVirtual.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	timers timerHeap
	seq    uint64
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock positioned at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Timer implements Clock. Arming and the clock's reading happen under one
// lock, so the clock cannot move in between.
func (v *Virtual) Timer(at time.Time) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := &vtimer{v: v, ch: make(chan time.Time, 1), i: -1}
	v.arm(t, at)
	return t
}

// arm fires t now if at is not after now, or puts it in the heap. Caller
// holds v.mu.
func (v *Virtual) arm(t *vtimer, at time.Time) {
	if !at.After(v.now) {
		t.ch <- v.now
		return
	}
	v.seq++
	t.at, t.seq = at, v.seq
	heap.Push(&v.timers, t)
}

func (t *vtimer) C() <-chan time.Time { return t.ch }

func (t *vtimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	return t.stopLocked()
}

// stopLocked takes t out of the heap and reports whether it was there.
// Caller holds t.v.mu.
func (t *vtimer) stopLocked() bool {
	if t.i < 0 {
		return false
	}
	heap.Remove(&t.v.timers, t.i)
	return true
}

// Reset implements Timer. Every tick is sent under the clock's lock, so the
// drain here cannot miss one.
func (t *vtimer) Reset(at time.Time) {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	t.stopLocked()
	select {
	case <-t.ch:
	default:
	}
	t.v.arm(t, at)
}

// fireNext pops the earliest timer, moves the clock to its deadline and
// sends it. Caller holds v.mu, and the heap is not empty.
func (v *Virtual) fireNext() {
	t := heap.Pop(&v.timers).(*vtimer)
	v.now = t.at
	t.ch <- t.at
}

// Advance moves the clock forward by d, firing every timer whose deadline is
// reached, in deadline order.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now.Add(d)
	for len(v.timers) > 0 && !v.timers[0].at.After(target) {
		v.fireNext()
	}
	v.now = target
	v.mu.Unlock()
}

// AdvanceToNext advances the clock to the next pending timer, if any, and
// reports whether a timer fired.
func (v *Virtual) AdvanceToNext() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.timers) == 0 {
		return false
	}
	v.fireNext()
	return true
}

// Pending reports the number of outstanding timers.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.timers)
}
