// Package simtime provides a clock abstraction so that the middleware and the
// network simulator can run either against the wall clock or against a
// deterministic virtual clock driven by tests and benchmarks.
//
// Using a virtual clock keeps simulation experiments reproducible and lets
// the test suite exercise long simulated horizons (hours of network lifetime)
// in microseconds of real time.
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
	// After returns a channel that receives the then-current time once d has
	// elapsed on this clock.
	After(d time.Duration) <-chan time.Time
}

// Real is a Clock backed by the wall clock.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// waiter is a pending timer on a virtual clock.
type waiter struct {
	at time.Time
	ch chan time.Time
	// seq breaks ties so the heap pops waiters in registration order.
	seq uint64
}

// waiterHeap orders waiters by deadline, then registration order.
type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x interface{}) { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// Virtual is a deterministic Clock that only moves when Advance is called.
// The zero value is not usable; construct with NewVirtual.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     uint64
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

// After implements Clock. The returned channel has capacity one so firing
// never blocks Advance.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- v.now
		return ch
	}
	v.seq++
	heap.Push(&v.waiters, &waiter{at: v.now.Add(d), ch: ch, seq: v.seq})
	return ch
}

// Advance moves the clock forward by d, firing every timer whose deadline is
// reached, in deadline order.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now.Add(d)
	for len(v.waiters) > 0 && !v.waiters[0].at.After(target) {
		w := heap.Pop(&v.waiters).(*waiter)
		v.now = w.at
		w.ch <- w.at
	}
	v.now = target
	v.mu.Unlock()
}

// AdvanceToNext advances the clock to the next pending timer, if any, and
// reports whether a timer fired.
func (v *Virtual) AdvanceToNext() bool {
	v.mu.Lock()
	if len(v.waiters) == 0 {
		v.mu.Unlock()
		return false
	}
	w := heap.Pop(&v.waiters).(*waiter)
	v.now = w.at
	w.ch <- w.at
	v.mu.Unlock()
	return true
}

// Pending reports the number of outstanding timers.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}
