package main

import (
	"testing"
	"time"
)

const ms = int64(time.Millisecond)

func TestTickScheduleDueTimesAndCounts(t *testing.T) {
	s := tickSchedule{start: 5 * ms, tick: ms, perTick: 20}
	for _, tick := range []int64{0, 1, 7, 1000} {
		if got, want := s.due(tick), 5*ms+tick*ms; got != want {
			t.Errorf("due(%d) = %d, want start + t x 1 ms = %d", tick, got, want)
		}
		if got := s.count(tick); got != 20 {
			t.Errorf("count(%d) = %d, want 20", tick, got)
		}
	}
}

func TestTickScheduleSpreadsFractionalRates(t *testing.T) {
	// 2.5 per tick: alternating 2 and 3, never more than one away from
	// rate x time.
	s := tickSchedule{tick: ms, perTick: 2.5}
	total := 0
	for tick := int64(0); tick < 1000; tick++ {
		n := s.count(tick)
		if n != 2 && n != 3 {
			t.Fatalf("count(%d) = %d, want 2 or 3", tick, n)
		}
		total += n
		if want := 2.5 * float64(tick+1); float64(total) > want || float64(total) < want-1 {
			t.Fatalf("after tick %d issued %d, want within one below %v", tick, total, want)
		}
	}
	// Less than one per tick: one request every fourth tick.
	s = tickSchedule{tick: ms, perTick: 0.25}
	total = 0
	for tick := int64(0); tick < 400; tick++ {
		total += s.count(tick)
	}
	if total != 100 {
		t.Errorf("0.25 per tick over 400 ticks issued %d, want 100", total)
	}
}

// fakeClock is a clock whose sleeps overshoot by whatever the test says.
type fakeClock struct {
	now       int64
	overshoot func(wakeAt int64) int64
}

func (c *fakeClock) pacer(s tickSchedule) pacer {
	return pacer{
		sched: s,
		now:   func() int64 { return c.now },
		sleep: func(ns int64) { c.now += ns + c.overshoot(c.now+ns) },
	}
}

func TestPacerKeepsOriginalDueTimesAfterALateTick(t *testing.T) {
	// The sleep to tick 3 comes back 3.5 ticks late. Ticks 3 to 6 must then
	// be issued at once, each request still due at its own tick's instant,
	// none skipped and none moved to when it was actually sent.
	clock := &fakeClock{overshoot: func(wakeAt int64) int64 {
		if wakeAt == 3*ms {
			return 3*ms + ms/2
		}
		return 0
	}}
	s := tickSchedule{start: 0, tick: ms, perTick: 2}
	type issued struct{ due, at int64 }
	var got []issued
	clock.pacer(s).run(10*ms, func(due int64) {
		got = append(got, issued{due, clock.now})
		clock.now += 1000 // a call takes a microsecond
	})
	if len(got) != 20 {
		t.Fatalf("issued %d requests, want 2 per tick x 10 ticks", len(got))
	}
	for k, r := range got {
		if want := int64(k/2) * ms; r.due != want {
			t.Errorf("request %d (request %d of tick %d) due %d, want %d", k, k%2, k/2, r.due, want)
		}
		if r.at < r.due {
			t.Errorf("request %d issued at %d, before it was due at %d", k, r.at, r.due)
		}
	}
	// Ticks 3..6 were all issued in the catch-up burst after the late wake-up.
	for k := 6; k < 14; k++ {
		if got[k].at < 6*ms+ms/2 || got[k].at > 6*ms+ms/2+20_000 {
			t.Errorf("request %d issued at %d, want in the burst right after %d", k, got[k].at, 6*ms+ms/2)
		}
	}
	if got[14].at < 7*ms {
		t.Errorf("tick 7 issued at %d: the pacer did not go back to waiting once it had caught up", got[14].at)
	}
}

func TestPacerToleratesEarlyWakeUps(t *testing.T) {
	// A wake-up source tied to something other than this schedule (a timer
	// armed on tick instants firing for a tick already served) returns early;
	// no request may go out before its tick.
	clock := &fakeClock{overshoot: func(int64) int64 { return 0 }}
	p := clock.pacer(tickSchedule{tick: ms, perTick: 1})
	p.sleep = func(ns int64) { clock.now += ns/3 + 1 }
	n := 0
	p.run(5*ms, func(due int64) {
		if clock.now < due {
			t.Errorf("request due %d issued at %d", due, clock.now)
		}
		n++
	})
	if n != 5 {
		t.Errorf("issued %d, want 5", n)
	}
}

// instant is a system that answers at once, with an in-order check on waits.
func instant(t *testing.T) ops[uint64] {
	next := uint64(0)
	return ops[uint64]{
		start: func(seq uint64) uint64 { return seq },
		wait: func(h, seq uint64) outcome {
			if _, index := splitSeq(seq); h != seq || index != next {
				t.Errorf("collected request %x (handle %x), want index %d: the collector is not in issue order", seq, h, next)
			}
			next++
			return outcomeOK
		},
	}
}

func TestPacedStampsDueIssueAndDoneOnTheRealClock(t *testing.T) {
	var log streamLog
	start := nowNs()
	sched := tickSchedule{start: start, tick: ms, perTick: 3}
	paced(instant(t), 1, sched, 256, start+20*ms, &log, nil)
	if len(log.samples) != 60 {
		t.Fatalf("logged %d samples, want 3 per tick x 20 ticks", len(log.samples))
	}
	for k, s := range log.samples {
		if want := start + int64(k/3)*ms; s.due != want {
			t.Errorf("sample %d due %d, want %d", k, s.due, want)
		}
		if s.issue < s.due || s.done < s.issue {
			t.Errorf("sample %d: due %d, issue %d, done %d are not in order", k, s.due, s.issue, s.done)
		}
	}
	if log.peakInflight < 1 {
		t.Errorf("peak in flight = %d, want at least 1", log.peakInflight)
	}
}

func TestClosedLoopKeepsItsWindowAndCollectsEverything(t *testing.T) {
	var log streamLog
	inflight, peak := 0, 0
	o := instant(t)
	start, wait := o.start, o.wait
	o.start = func(seq uint64) uint64 {
		if inflight++; inflight > peak {
			peak = inflight
		}
		return start(seq)
	}
	o.wait = func(h, seq uint64) outcome { inflight--; return wait(h, seq) }
	closedLoop(o, 0, 8, nowNs()+5*ms, &log, nil)
	if peak != 8 {
		t.Errorf("peak in flight = %d, want the window, 8", peak)
	}
	if inflight != 0 {
		t.Errorf("%d requests never collected", inflight)
	}
	for k, s := range log.samples {
		if s.due != s.issue || s.done < s.issue {
			t.Errorf("sample %d: due %d, issue %d, done %d", k, s.due, s.issue, s.done)
		}
	}
}

func TestSeqRoundTrips(t *testing.T) {
	stream, index := splitSeq(seqOf(3, 123456789))
	if stream != 3 || index != 123456789 {
		t.Errorf("splitSeq(seqOf(3, 123456789)) = %d, %d", stream, index)
	}
}
