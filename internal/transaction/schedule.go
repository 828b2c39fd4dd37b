package transaction

import (
	"sync"
	"time"

	"ndsm/internal/simtime"
)

// Schedule decides when a transaction's next proactive transmission should
// happen.
type Schedule interface {
	// Next returns the time of the next transmission after now, or false if
	// transmissions only happen on demand.
	Next(now time.Time) (time.Time, bool)
	// Observe feeds the schedule an actual event time (a demand, a sample
	// arrival) so predictive schedules can learn.
	Observe(at time.Time)
}

// Periodic is the continuous class: fire every Period.
type Periodic struct {
	Period time.Duration
}

var _ Schedule = Periodic{}

// Next implements Schedule.
func (p Periodic) Next(now time.Time) (time.Time, bool) { return now.Add(p.Period), true }

// Observe implements Schedule.
func (Periodic) Observe(time.Time) {}

// Demand is the on-demand class: never proactive.
type Demand struct{}

var _ Schedule = Demand{}

// Next implements Schedule.
func (Demand) Next(time.Time) (time.Time, bool) { return time.Time{}, false }

// Observe implements Schedule.
func (Demand) Observe(time.Time) {}

// Predictor is the intermittent-with-prediction class: it learns the
// inter-event interval with an exponentially weighted moving average and
// predicts the next event one smoothed interval after the last observed one.
// Until two observations arrive it falls back to Initial.
type Predictor struct {
	// Initial is the interval assumed before any history exists.
	Initial time.Duration
	// Alpha is the EWMA smoothing factor in (0,1]; higher reacts faster
	// (default 0.5 when 0).
	Alpha float64

	mu       sync.Mutex
	last     time.Time
	haveLast bool
	smoothed time.Duration
}

var _ Schedule = (*Predictor)(nil)

// Observe implements Schedule.
func (p *Predictor) Observe(at time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.haveLast {
		interval := at.Sub(p.last)
		if interval > 0 {
			alpha := p.Alpha
			if alpha <= 0 || alpha > 1 {
				alpha = 0.5
			}
			if p.smoothed == 0 {
				p.smoothed = interval
			} else {
				p.smoothed = time.Duration(alpha*float64(interval) + (1-alpha)*float64(p.smoothed))
			}
		}
	}
	p.last = at
	p.haveLast = true
}

// Predicted returns the current interval estimate.
func (p *Predictor) Predicted() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.smoothed > 0 {
		return p.smoothed
	}
	return p.Initial
}

// Next implements Schedule: one predicted interval after the later of (last
// observation, now).
func (p *Predictor) Next(now time.Time) (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	interval := p.smoothed
	if interval <= 0 {
		interval = p.Initial
	}
	if interval <= 0 {
		return time.Time{}, false
	}
	base := now
	if p.haveLast && p.last.After(now) {
		base = p.last
	}
	return base.Add(interval), true
}

// Pump drives a supplier's proactive transmissions: at each schedule time it
// pulls a payload from source and hands it to emit. It is the machinery
// behind continuous and intermittent transactions; on-demand transactions
// never start a pump.
type Pump struct {
	clock    simtime.Clock
	schedule Schedule
	source   func() ([]byte, bool)
	emit     func([]byte) error

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewPump starts pumping. source returns the next payload (false ends the
// pump); emit transmits it (an error is not fatal: the pump carries on).
func NewPump(clock simtime.Clock, schedule Schedule, source func() ([]byte, bool), emit func([]byte) error) *Pump {
	clock = simtime.OrReal(clock)
	p := &Pump{
		clock:    clock,
		schedule: schedule,
		source:   source,
		emit:     emit,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go p.run()
	return p
}

// Stop halts the pump and waits for it to exit.
func (p *Pump) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

func (p *Pump) run() {
	defer close(p.done)
	for {
		next, ok := p.schedule.Next(p.clock.Now())
		if !ok {
			return // on-demand: nothing proactive to do
		}
		timer := p.clock.Timer(next)
		select {
		case <-p.stop:
			timer.Stop()
			return
		case <-timer.C():
		}
		payload, more := p.source()
		if !more {
			return
		}
		p.schedule.Observe(p.clock.Now())
		_ = p.emit(payload)
	}
}
