package simtime

import (
	"testing"
	"time"
)

// armed waits until v has n pending timers: a loop has armed its next round.
func armed(t *testing.T, v *Virtual, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); v.Pending() != n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("Pending() = %d after 5 s, want %d", v.Pending(), n)
		}
	}
}

// A round runs each time the period passes, and no sooner.
func TestEveryRunsARoundEachPeriod(t *testing.T) {
	v := NewVirtual(epoch)
	rounds := make(chan time.Time, 8)
	l := Every(v, time.Second, func() { rounds <- v.Now() })
	defer l.Stop()
	for i := 1; i <= 3; i++ {
		armed(t, v, 1)
		v.Advance(999 * time.Millisecond)
		select {
		case <-rounds:
			t.Fatalf("round %d ran before its period passed", i)
		default:
		}
		v.Advance(time.Millisecond)
		if at := <-rounds; !at.Equal(epoch.Add(time.Duration(i) * time.Second)) {
			t.Fatalf("round %d ran at %v, want +%ds", i, at, i)
		}
	}
}

// Stop waits for a round under way to finish and the loop to exit, takes the
// loop's timer off the clock, and no round runs after it.
func TestEveryStopWaitsForTheLoop(t *testing.T) {
	v := NewVirtual(epoch)
	entered, release := make(chan struct{}), make(chan struct{})
	ran := 0
	l := Every(v, time.Second, func() {
		ran++
		entered <- struct{}{}
		<-release
	})
	armed(t, v, 1)
	v.Advance(time.Second)
	<-entered
	stopped := make(chan struct{})
	go func() {
		l.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a round was under way")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-stopped
	if v.Pending() != 0 {
		t.Fatalf("Pending() = %d after Stop, want 0", v.Pending())
	}
	v.Advance(time.Hour)
	if ran != 1 {
		t.Fatalf("%d rounds ran, want 1", ran)
	}
	l.Stop() // a second Stop returns at once
	var none *Loop
	none.Stop()
}
