package simtime

import (
	"sync"
	"time"
)

// Loop is work done in rounds on a clock, on a goroutine of its own, until
// Stop.
type Loop struct {
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// Every starts a Loop that runs round each time period passes on clock,
// counting each period from the end of the round before it. The first round
// runs one period after Every.
func Every(clock Clock, period time.Duration, round func()) *Loop {
	l := &Loop{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		t := clock.Timer(clock.Now().Add(period))
		defer t.Stop()
		for {
			select {
			case <-t.C():
				round()
				t.Reset(clock.Now().Add(period))
			case <-l.stop:
				return
			}
		}
	}()
	return l
}

// Stop ends the loop and returns once its goroutine has exited: a round under
// way finishes, and none starts after. Stop may be called more than once, and
// on a nil Loop, which does nothing.
func (l *Loop) Stop() {
	if l == nil {
		return
	}
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
}
