package simtime

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)

func TestRealNow(t *testing.T) {
	c := Real{}
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v, want between %v and %v", got, before, after)
	}
}

func TestVirtualNow(t *testing.T) {
	v := NewVirtual(epoch)
	if got := v.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
	v.Advance(3 * time.Second)
	if got := v.Now(); !got.Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("Now() after advance = %v, want %v", got, epoch.Add(3*time.Second))
	}
}

func TestVirtualTimerFiresAtDeadline(t *testing.T) {
	v := NewVirtual(epoch)
	ch := v.Timer(epoch.Add(10 * time.Second)).C()
	select {
	case <-ch:
		t.Fatal("timer fired before advance")
	default:
	}

	v.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired 1s early")
	default:
	}

	v.Advance(time.Second)
	select {
	case at := <-ch:
		if want := epoch.Add(10 * time.Second); !at.Equal(want) {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at deadline")
	}
}

func TestVirtualFiringOrder(t *testing.T) {
	v := NewVirtual(epoch)
	var mu sync.Mutex
	var order []int

	var wg sync.WaitGroup
	waitFor := func(id int, d time.Duration) {
		ch := v.Timer(epoch.Add(d)).C()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ch
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}()
	}
	// Register out of order; they must still complete by deadline order once
	// the clock jumps past all of them. Because each goroutine just appends,
	// we check set membership via sorted deadlines firing: the channel sends
	// happen in deadline order inside Advance, but goroutine scheduling can
	// reorder the appends, so we only verify all fired.
	waitFor(3, 30*time.Millisecond)
	waitFor(1, 10*time.Millisecond)
	waitFor(2, 20*time.Millisecond)

	v.Advance(time.Second)
	wg.Wait()
	if len(order) != 3 {
		t.Fatalf("fired %d timers, want 3", len(order))
	}
}

func TestVirtualAdvanceToNext(t *testing.T) {
	v := NewVirtual(epoch)
	ch1 := v.Timer(epoch.Add(5 * time.Second)).C()
	ch2 := v.Timer(epoch.Add(7 * time.Second)).C()

	if !v.AdvanceToNext() {
		t.Fatal("AdvanceToNext() = false with pending timer")
	}
	if got := v.Now(); !got.Equal(epoch.Add(5 * time.Second)) {
		t.Fatalf("Now() = %v, want +5s", got)
	}
	select {
	case <-ch1:
	default:
		t.Fatal("first timer did not fire")
	}
	select {
	case <-ch2:
		t.Fatal("second timer fired early")
	default:
	}

	if !v.AdvanceToNext() {
		t.Fatal("AdvanceToNext() = false with one timer left")
	}
	select {
	case <-ch2:
	default:
		t.Fatal("second timer did not fire")
	}
	if v.AdvanceToNext() {
		t.Fatal("AdvanceToNext() = true with no timers")
	}
}

func TestVirtualPending(t *testing.T) {
	v := NewVirtual(epoch)
	if got := v.Pending(); got != 0 {
		t.Fatalf("Pending() = %d, want 0", got)
	}
	v.Timer(epoch.Add(time.Second))
	v.Timer(epoch.Add(2 * time.Second))
	if got := v.Pending(); got != 2 {
		t.Fatalf("Pending() = %d, want 2", got)
	}
	v.Advance(3 * time.Second)
	if got := v.Pending(); got != 0 {
		t.Fatalf("Pending() after advance = %d, want 0", got)
	}
}

func TestVirtualTiesFireInRegistrationOrder(t *testing.T) {
	v := NewVirtual(epoch)
	ch1 := v.Timer(epoch.Add(time.Second)).C()
	ch2 := v.Timer(epoch.Add(time.Second)).C()
	v.Advance(time.Second)
	// Both fired; deterministic pop order is 1 then 2. We can only observe
	// both are ready since sends buffered; check both.
	select {
	case <-ch1:
	default:
		t.Fatal("ch1 not fired")
	}
	select {
	case <-ch2:
	default:
		t.Fatal("ch2 not fired")
	}
}

func TestRealTimer(t *testing.T) {
	c := Real{}
	tm := c.Timer(time.Now().Add(time.Millisecond))
	select {
	case <-tm.C():
	case <-time.After(5 * time.Second):
		t.Fatal("Real.Timer never fired")
	}
	tm.Reset(time.Now().Add(time.Hour))
	if !tm.Stop() {
		t.Fatal("Stop of a timer armed for an hour = false, want true")
	}
	tm.Reset(time.Now().Add(-time.Second)) // a past instant fires at once
	select {
	case <-tm.C():
	case <-time.After(5 * time.Second):
		t.Fatal("a Real timer reset to a past instant never fired")
	}
}

// A timer armed at an instant that is not after now fires at once, with the
// clock's reading, and is never pending.
func TestVirtualTimerInThePastFiresAtOnce(t *testing.T) {
	v := NewVirtual(epoch)
	for _, at := range []time.Time{epoch, epoch.Add(-time.Hour)} {
		tm := v.Timer(at)
		select {
		case got := <-tm.C():
			if !got.Equal(epoch) {
				t.Fatalf("timer at %v ticked %v, want now (%v)", at, got, epoch)
			}
		default:
			t.Fatalf("timer at %v, not after now, did not fire at once", at)
		}
		if v.Pending() != 0 {
			t.Fatalf("Pending() = %d after a timer fired at once, want 0", v.Pending())
		}
	}
}

// Stop reports as time.Timer's does: true for a pending timer, which it takes
// off the clock, and false for one stopped or fired.
func TestVirtualTimerStop(t *testing.T) {
	v := NewVirtual(epoch)
	tm := v.Timer(epoch.Add(time.Second))
	other := v.Timer(epoch.Add(2 * time.Second))
	if v.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", v.Pending())
	}
	if !tm.Stop() {
		t.Fatal("Stop of a pending timer = false, want true")
	}
	if v.Pending() != 1 {
		t.Fatalf("Pending() after Stop = %d, want 1", v.Pending())
	}
	if tm.Stop() {
		t.Fatal("second Stop = true, want false")
	}
	v.Advance(time.Hour)
	select {
	case <-tm.C():
		t.Fatal("a stopped timer fired")
	default:
	}
	if other.Stop() {
		t.Fatal("Stop of a fired timer = true, want false")
	}
	if v.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", v.Pending())
	}
}

// Reset re-arms a stopped or fired timer, and a tick of the earlier arming
// that nobody received is gone.
func TestVirtualTimerReset(t *testing.T) {
	v := NewVirtual(epoch)
	tm := v.Timer(epoch.Add(time.Second))
	tm.Stop()
	tm.Reset(epoch.Add(3 * time.Second))
	v.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("a timer reset to +3s fired at +2s")
	default:
	}
	v.Advance(time.Second) // fires; the tick stays unreceived
	if v.Pending() != 0 {
		t.Fatalf("Pending() = %d after the timer fired, want 0", v.Pending())
	}
	tm.Reset(epoch.Add(5 * time.Second))
	select {
	case <-tm.C():
		t.Fatal("Reset kept the tick of the earlier arming")
	default:
	}
	v.Advance(2 * time.Second)
	select {
	case at := <-tm.C():
		if want := epoch.Add(5 * time.Second); !at.Equal(want) {
			t.Fatalf("reset timer ticked %v, want %v", at, want)
		}
	default:
		t.Fatal("reset timer did not fire")
	}
}

// Timers fire in deadline order, ties in registration order, also after
// Stop and Reset have moved timers within the clock's heap.
func TestVirtualTimersFireInDeadlineThenRegistrationOrder(t *testing.T) {
	v := NewVirtual(epoch)
	at := func(s int) time.Time { return epoch.Add(time.Duration(s) * time.Second) }
	c := v.Timer(at(3))
	a := v.Timer(at(1))
	gone := v.Timer(at(2))
	b1 := v.Timer(at(2))
	b2 := v.Timer(at(2))
	d := v.Timer(at(9))
	gone.Stop()
	d.Reset(at(4))
	fired := func(tm Timer) bool {
		select {
		case <-tm.C():
			return true
		default:
			return false
		}
	}
	// Advance fires exactly the timers due by its target.
	v.Advance(time.Second)
	if !fired(a) || fired(b1) || fired(b2) {
		t.Fatal("Advance to +1s did not fire exactly the +1s timer")
	}
	// One at a time, the rest fire in order: the tie in registration order.
	for i, want := range []Timer{b1, b2, c, d} {
		if !v.AdvanceToNext() {
			t.Fatalf("step %d: no timer pending", i)
		}
		for _, tm := range []Timer{b1, b2, c, d, gone} {
			if got := fired(tm); got != (tm == want) {
				t.Fatalf("step %d: fired = %v for a timer the order says %v", i, got, tm == want)
			}
		}
	}
	if v.AdvanceToNext() {
		t.Fatal("a timer was left pending")
	}
}
