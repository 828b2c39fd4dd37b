package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors every timestamp the benchmark takes: nowNs is monotonic
// nanoseconds since process start, cheap enough to call per request.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// outcome classifies one finished request.
type outcome uint8

const (
	outcomeOK     outcome = iota
	outcomeFailed         // error, wrong or missing output
	outcomeShed           // refused, by admission control or by the call's own deadline (overload workload only)
)

// sample is one request as the generator saw it. Times are nowNs values.
// due is when the schedule wanted it sent (closed loops: when it was sent),
// issue when the call was actually entered, done when its reply was
// collected.
type sample struct {
	due, issue, done int64
	out              outcome
}

// streamLog collects one connection's samples. A single goroutine appends
// (the collector, or the closed loop itself), so it needs no lock; it is
// read after that goroutine has been joined.
type streamLog struct {
	samples      []sample
	peakInflight int // most requests issued and not yet collected at once
}

// newStreamLogs makes n logs, each with room off the Go heap for the largest
// of the given window sizes (requests per second x how long). A window that
// outruns the estimate still logs everything: append then moves that log onto
// the heap.
func newStreamLogs(n int, sizes ...float64) []*streamLog {
	room := 0.0
	for _, s := range sizes {
		room = max(room, s)
	}
	logs := make([]*streamLog, n)
	for i := range logs {
		logs[i] = &streamLog{samples: offHeap[sample](int(room))[:0]}
	}
	return logs
}

// ops is how a workload starts one request without waiting for it and later
// collects it. H is the workload's handle for a request in flight; keeping it
// a type parameter keeps the generator itself allocation-free, so
// allocs_per_req counts the system's allocations and not the harness's.
type ops[H any] struct {
	start func(seq uint64) H
	wait  func(h H, seq uint64) outcome
}

// seqOf numbers requests: the stream in the high 16 bits, the request's
// index on that stream below. The tracer indexes its stamp arrays the same
// way.
func seqOf(stream int, index uint64) uint64 { return uint64(stream)<<48 | index }

func splitSeq(seq uint64) (stream int, index uint64) {
	return int(seq >> 48), seq & (1<<48 - 1)
}

// closedLoop keeps `depth` requests in flight on one stream until the clock
// passes until, then collects what is outstanding. Each request is timed from
// the call that starts it to the return of the wait that collects it, in
// issue order.
func closedLoop[H any](o ops[H], stream, depth int, until int64, log *streamLog, tr *tracer) {
	type flight struct {
		h     H
		seq   uint64
		issue int64
	}
	ring := make([]flight, depth)
	var index uint64
	settle := func(f flight) {
		out := o.wait(f.h, f.seq)
		done := nowNs()
		tr.stamp(f.seq, stDone, 0, done)
		log.samples = append(log.samples, sample{due: f.issue, issue: f.issue, done: done, out: out})
	}
	issued := 0
	for ; nowNs() < until; issued++ {
		slot := issued % depth
		if issued >= depth {
			settle(ring[slot])
		}
		seq := seqOf(stream, index)
		index++
		t0 := nowNs()
		tr.stamp(seq, stCall, 0, t0)
		ring[slot] = flight{h: o.start(seq), seq: seq, issue: t0}
	}
	first := issued - depth
	if first < 0 {
		first = 0
	}
	for i := first; i < issued; i++ {
		settle(ring[i%depth])
	}
	log.peakInflight = min(depth, issued)
}

// tickSchedule is a fixed-rate open-loop schedule for one stream: every tick
// it owes a whole number of requests, all due at the tick's instant. A
// fractional per-tick rate is spread so that the running total never drifts
// from rate × time by more than one request.
type tickSchedule struct {
	start   int64   // nowNs of tick 0
	tick    int64   // ns between ticks
	perTick float64 // requests owed per tick
}

func (s tickSchedule) due(t int64) int64 { return s.start + t*s.tick }

func (s tickSchedule) count(t int64) int {
	return int(math.Floor(float64(t+1)*s.perTick) - math.Floor(float64(t)*s.perTick))
}

// pacer walks a tickSchedule. now and sleep are fields so the schedule can be
// tested against a clock that oversleeps; sleep(ns) may return early or late,
// and run copes with both.
type pacer struct {
	sched tickSchedule
	now   func() int64
	sleep func(ns int64)
}

// realPacer paces on the real clock, woken by a timerfd armed on the
// schedule's own tick instants. stop releases the timer.
func realPacer(s tickSchedule) (p pacer, stop func()) {
	p = pacer{sched: s, now: nowNs, sleep: func(ns int64) { time.Sleep(time.Duration(ns)) }}
	// The first expiry is the next tick instant still ahead, so that every
	// expiry after it falls on one too.
	ahead := s.tick - (nowNs()-s.start)%s.tick
	timer := newTickTimer(time.Duration(ahead), time.Duration(s.tick))
	if timer == nil {
		return p, func() {}
	}
	p.sleep = func(int64) { timer.wait() }
	return p, timer.close
}

// run calls issue once per owed request, in order, for every tick due before
// until. It sleeps only when it is ahead of the schedule; after a late
// wake-up it issues the missed ticks back to back, each request still
// carrying its original due time, so a stall shows up as latency on the
// requests it delayed instead of silently lowering the offered rate.
func (p pacer) run(until int64, issue func(due int64)) {
	for t := int64(0); ; t++ {
		due := p.sched.due(t)
		if due >= until {
			return
		}
		for wait := due - p.now(); wait > 0; wait = due - p.now() {
			p.sleep(wait)
		}
		for k := p.sched.count(t); k > 0; k-- {
			issue(due)
		}
	}
}

// collectorBacklog bounds how many started-but-uncollected requests a paced
// stream may hold: 256, or a mebibyte of payload if that is fewer, several
// times what is in flight at any pinned rate (10 to 80 on the seed), so at its
// rate the generator never waits for it. It is there for the moments after the
// machine has frozen the whole process: without it the generator would fire
// the several thousand requests it then owes all at once, every one a
// goroutine and two buffers in the server, and peak_rss_mb would measure the
// freeze. With it the generator waits for the collector, which lateness
// reports, and each request is still timed from when it was due.
func collectorBacklog(payload int) int { return min(256, (1<<20)/payload) }

// paced issues requests on schedule from one goroutine and collects them, in
// issue order, on another. A request's latency runs from its tick's scheduled
// instant to the moment the collector's wait for it returns; how late the
// generator actually entered the call is kept beside it.
func paced[H any](o ops[H], stream int, sched tickSchedule, backlog int, until int64, log *streamLog, tr *tracer) {
	type flight struct {
		h          H
		seq        uint64
		due, issue int64
	}
	queue := make(chan flight, backlog)
	var collected atomic.Int64
	var collector sync.WaitGroup
	collector.Add(1)
	go func() {
		defer collector.Done()
		for f := range queue {
			out := o.wait(f.h, f.seq)
			done := nowNs()
			tr.stamp(f.seq, stDone, 0, done)
			log.samples = append(log.samples, sample{due: f.due, issue: f.issue, done: done, out: out})
			collected.Add(1)
		}
	}()
	var index uint64
	peak := int64(0)
	pace, stop := realPacer(sched)
	defer stop()
	pace.run(until, func(due int64) {
		seq := seqOf(stream, index)
		index++
		t0 := nowNs()
		tr.stamp(seq, stCall, 0, t0)
		queue <- flight{h: o.start(seq), seq: seq, due: due, issue: t0}
		peak = max(peak, int64(index)-collected.Load())
	})
	close(queue)
	collector.Wait()
	log.peakInflight = int(peak)
}
