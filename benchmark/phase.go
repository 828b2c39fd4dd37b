package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// A run measures in rounds: each round takes one window of every phase, in
// turn. A phase's windows are thereby spread over the whole run instead of
// sitting back to back, so a noisy stretch of the machine (this box has them,
// ten seconds and more at a time) spoils at most a window or two of each phase
// and the median over the windows does not move.

// phaseSpec sizes one window of one phase: a discarded lead-in with the load
// already running, then the window.
type phaseSpec struct {
	name       string
	window     time.Duration
	paced      bool    // open loop: check lateness and backlog
	rate       float64 // paced: total offered requests per second, for the backlog check
	minSamples int     // a window with fewer latency samples is invalid
	penaltyNs  int64   // latency charged to a request that failed or was refused
	limitNs    int64   // a request slower than this (or not OK) missed its deadline; 0: no deadline
}

// drainLimit is how long after a window its requests in flight may take to
// come back before the run gives up.
const drainLimit = 30 * time.Second

// backlogTicks is how many ticks' worth of requests the count in flight may
// grow over a window before the window counts as falling behind. Read at an
// arbitrary instant inside a tick, the count swings by two ticks' worth on its
// own (every connection's burst plus the tail of the previous tick), while a
// system one per cent short of the offered rate gains ten ticks' worth a
// second.
const backlogTicks = 5

// leadIn runs the phase's load before the window so that no window starts
// from an idle system or from the previous phase's queues.
const leadIn = 150 * time.Millisecond

func (p phaseSpec) duration() time.Duration { return leadIn + p.window }

// boundary is what the monitor reads at a window edge.
type boundary struct {
	t          int64 // nowNs when the reads were taken
	cpuNs      int64 // process user+system CPU time
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	heapInuse  uint64
}

// cpuNs is the user and system CPU time the process has used.
func cpuNs() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func readBoundary() boundary {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return boundary{
		t:          nowNs(),
		cpuNs:      cpuNs(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs,
		heapInuse:  ms.HeapInuse,
	}
}

// sliceLen is how often inside a window the monitor reads the clock and the
// process's CPU time. The metrics that are a speed (throughput, CPU per
// request, median latency) are taken per slice and summarised over all the
// slices of a phase, a hundred or so in a run; robust says why.
const sliceLen = 100 * time.Millisecond

// edge is the monitor's light read between two slices.
type edge struct {
	t     int64 // nowNs when the read was taken
	cpuNs int64 // process user+system CPU time
}

// windowRun is what the monitor saw while a window's load ran. edges starts
// with from's read and ends with to's.
type windowRun struct {
	from, to       boundary
	edges          []edge
	goroutinesPeak int
}

// sliceStats is one slice of one window.
type sliceStats struct {
	seconds   float64
	attempted int     // requests due in the slice
	completed int     // requests collected OK in the slice
	cpuNs     int64   // CPU time the process used in the slice
	p50       float64 // median latency in µs of the requests due in the slice
}

// perSec is the slice's throughput.
func (s *sliceStats) perSec() float64 { return float64(s.completed) / s.seconds }

// cpuUsPer is the CPU time per request completed in the slice, or per request
// due in it; ok is false for a slice without any.
func (s *sliceStats) cpuUsPer(perAttempt bool) (us float64, ok bool) {
	n := s.completed
	if perAttempt {
		n = s.attempted
	}
	if n == 0 {
		return 0, false
	}
	return float64(s.cpuNs) / 1e3 / float64(n), true
}

// windowStats is one window of one phase.
type windowStats struct {
	seconds   float64
	attempted int // requests due in the window
	completed int // requests collected OK in the window
	failed    int
	shed      int
	missed    int // not OK, or OK but later than the phase's deadline

	slices              []sliceStats
	n                   int // latency samples (every request due in the window, failed ones at the penalty)
	p50, p90, p99, p999 float64
	lateP50, lateP99    float64
	lateMeanUs          float64
	achievedShare       float64
	inflightStart       int
	inflightEnd         int
	inflightPeak        int
	goroutinesPeak      int
	cpuUsPerReq         float64
	allocsPerReq        float64
	bytesPerReq         float64
	gcCycles            int
	gcPauseMs           float64
	heapInuseMB         float64
	completedPerSec     float64
	invalid             string // why the window does not count as clean, or ""
}

// phaseStats is a phase's windows, one per round, and what was summed or
// merged over them.
type phaseStats struct {
	spec      phaseSpec
	windows   []windowStats
	attempted int
	failed    int
	shed      int
	missed    int
	segments  *segmentTable      // traced runs only
	extra     map[string]float64 // what only this workload measures in this phase: sums over the windows
}

// phases is a run's phases by name: "rtt", "capacity", "loaded", and on
// overload "bulk".
type phases map[string]*phaseStats

// add appends one round's window to the phase the spec names.
func (ps phases) add(spec phaseSpec, w windowStats, segs *segmentTable, extra map[string]float64) {
	p := ps[spec.name]
	if p == nil {
		p = &phaseStats{spec: spec, extra: map[string]float64{}}
		ps[spec.name] = p
	}
	p.windows = append(p.windows, w)
	p.attempted += w.attempted
	p.failed += w.failed
	p.shed += w.shed
	p.missed += w.missed
	if segs != nil {
		p.segments = mergeSegments(p.segments, segs)
	}
	for k, v := range extra {
		p.extra[k] += v
	}
}

// invalidWindows counts the windows that broke a validity rule.
func (p *phaseStats) invalidWindows() int {
	n := 0
	for _, w := range p.windows {
		if w.invalid != "" {
			n++
		}
	}
	return n
}

// over summarises one per-window quantity across the phase.
func (p *phaseStats) over(f func(*windowStats) float64) summary {
	vals := make([]float64, len(p.windows))
	counts := make([]int, len(p.windows))
	for i := range p.windows {
		vals[i] = f(&p.windows[i])
		counts[i] = p.windows[i].n
	}
	return summarize(vals, counts)
}

// overSlices summarises one per-slice quantity across every slice of every
// window of the phase; f reports false for a slice that has no value.
func (p *phaseStats) overSlices(f func(*sliceStats) (float64, bool)) summary {
	var vals []float64
	samples := 0
	for i := range p.windows {
		for j := range p.windows[i].slices {
			s := &p.windows[i].slices[j]
			if v, ok := f(s); ok {
				vals = append(vals, v)
				samples += s.attempted
			}
		}
	}
	out := robust(vals)
	if len(vals) > 0 {
		out.Samples = samples / len(vals)
	}
	return out
}

// peak is the largest value of a per-window quantity.
func (p *phaseStats) peak(f func(*windowStats) float64) float64 {
	out := 0.0
	for i := range p.windows {
		out = max(out, f(&p.windows[i]))
	}
	return out
}

// runWindow empties the logs, starts every stream, reads the process at the
// two edges of the window while they run, and joins them. The streams fill
// the logs; cutWindow turns them into statistics afterwards.
func runWindow(spec phaseSpec, logs []*streamLog, streams func(start, until int64) []func()) windowRun {
	for _, l := range logs {
		l.samples = l.samples[:0]
	}
	start := nowNs()
	until := start + int64(spec.duration())
	var wg sync.WaitGroup
	for _, run := range streams(start, until) {
		wg.Add(1)
		go func(run func()) {
			defer wg.Done()
			run()
		}(run)
	}

	// The monitor: sleep to each edge, read the process there, and watch the
	// goroutine count in between.
	var run windowRun
	sleepTo := func(edge int64) {
		for {
			run.goroutinesPeak = max(run.goroutinesPeak, runtime.NumGoroutine())
			left := edge - nowNs()
			if left <= 0 {
				return
			}
			time.Sleep(time.Duration(min(left, int64(10*time.Millisecond))))
		}
	}
	sleepTo(start + int64(leadIn))
	run.from = readBoundary()
	run.edges = append(run.edges, edge{t: run.from.t, cpuNs: run.from.cpuNs})
	// The last slice takes what is left: between half a slice and one and a half.
	for next := run.from.t + int64(sliceLen); next < until-int64(sliceLen)/2; next += int64(sliceLen) {
		sleepTo(next)
		run.edges = append(run.edges, edge{t: nowNs(), cpuNs: cpuNs()})
	}
	sleepTo(until)
	run.to = readBoundary()
	run.edges = append(run.edges, edge{t: run.to.t, cpuNs: run.to.cpuNs})

	joined := make(chan struct{})
	go func() {
		wg.Wait()
		close(joined)
	}()
	select {
	case <-joined:
	case <-time.After(drainLimit):
		// A reply that never comes would otherwise hang the run for good.
		fmt.Fprintf(os.Stderr, "benchmark: phase %s did not drain within %v of its window's end\n", spec.name, drainLimit)
		os.Exit(1)
	}
	return run
}

// cutWindow turns the logged samples and the monitor's two reads into the
// window's statistics. It is a pure function of its inputs. A request belongs
// to the window it was due in (a closed loop's due time is its issue time);
// a completion is counted where it happened. perAttempt chooses what CPU and
// allocation are divided by: requests attempted (overload, where refusing a
// request is work too) instead of requests completed.
func cutWindow(spec phaseSpec, run windowRun, logs []*streamLog, perAttempt bool) windowStats {
	a, b := run.from, run.to
	within := func(t int64) bool { return t >= a.t && t < b.t }
	ws := windowStats{seconds: float64(b.t-a.t) / 1e9, goroutinesPeak: run.goroutinesPeak}
	ws.slices = make([]sliceStats, max(len(run.edges)-1, 0))
	for i := range ws.slices {
		from, to := run.edges[i], run.edges[i+1]
		ws.slices[i] = sliceStats{seconds: float64(to.t-from.t) / 1e9, cpuNs: to.cpuNs - from.cpuNs}
	}
	// sliceOf is the slice an instant inside the window falls in.
	sliceOf := func(t int64) int {
		return sort.Search(len(ws.slices)-1, func(i int) bool { return run.edges[i+1].t > t })
	}
	var lat, late []int64
	var latSlice []int32 // the slice each entry of lat was due in
	var lateSum int64
	issuedIn := 0
	for _, l := range logs {
		ws.inflightPeak += l.peakInflight // per-stream peaks added: an upper bound on the joint peak
		for i := range l.samples {
			s := &l.samples[i]
			if s.issue <= a.t && s.done > a.t {
				ws.inflightStart++
			}
			if s.issue <= b.t && s.done > b.t {
				ws.inflightEnd++
			}
			if within(s.issue) {
				issuedIn++
			}
			if within(s.done) && s.out == outcomeOK {
				ws.completed++
				if len(ws.slices) > 0 {
					ws.slices[sliceOf(s.done)].completed++
				}
			}
			if !within(s.due) {
				continue
			}
			ws.attempted++
			if len(ws.slices) > 0 {
				at := sliceOf(s.due)
				ws.slices[at].attempted++
				latSlice = append(latSlice, int32(at))
			}
			switch s.out {
			case outcomeFailed:
				ws.failed++
			case outcomeShed:
				ws.shed++
			}
			d := s.done - s.due
			if s.out != outcomeOK && d < spec.penaltyNs {
				d = spec.penaltyNs
			}
			if s.out != outcomeOK || (spec.limitNs > 0 && d > spec.limitNs) {
				ws.missed++
			}
			lat, late = append(lat, d), append(late, s.issue-s.due)
			lateSum += s.issue - s.due
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	// Each slice's median: its latencies gathered side by side, then sorted.
	if len(latSlice) > 0 {
		ends := make([]int, len(ws.slices)) // after the loop below, where each slice's latencies end
		for i := range ws.slices {
			ends[i] = ws.slices[i].attempted
			if i > 0 {
				ends[i] += ends[i-1]
			}
		}
		next := append([]int{0}, ends[:len(ends)-1]...)
		bySlice := make([]int64, len(lat))
		for i, d := range lat {
			bySlice[next[latSlice[i]]] = d
			next[latSlice[i]]++
		}
		begin := 0
		for i, end := range ends {
			part := bySlice[begin:end]
			sort.Slice(part, func(a, b int) bool { return part[a] < part[b] })
			ws.slices[i].p50 = us(percentile(part, 0.50))
			begin = end
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	ws.n = len(lat)
	ws.p50, ws.p90 = us(percentile(lat, 0.50)), us(percentile(lat, 0.90))
	ws.p99, ws.p999 = us(percentile(lat, 0.99)), us(percentile(lat, 0.999))
	ws.lateP50, ws.lateP99 = us(percentile(late, 0.50)), us(percentile(late, 0.99))
	if ws.n > 0 {
		ws.lateMeanUs = us(lateSum) / float64(ws.n)
	}
	if ws.attempted > 0 {
		ws.achievedShare = float64(issuedIn) / float64(ws.attempted)
	}
	ws.completedPerSec = float64(ws.completed) / ws.seconds
	per := float64(ws.completed)
	if perAttempt {
		per = float64(ws.attempted)
	}
	if per > 0 {
		ws.cpuUsPerReq = float64(b.cpuNs-a.cpuNs) / 1e3 / per
		ws.allocsPerReq = float64(b.mallocs-a.mallocs) / per
		ws.bytesPerReq = float64(b.allocBytes-a.allocBytes) / per
	}
	ws.gcCycles = int(b.gcCycles - a.gcCycles)
	ws.gcPauseMs = float64(b.gcPauseNs-a.gcPauseNs) / 1e6
	ws.heapInuseMB = float64(b.heapInuse) / (1 << 20)
	ws.invalid = spec.judge(&ws)
	return ws
}

// judge applies the validity rules to one window: enough samples for the
// percentiles printed, a generator that kept its schedule, and a backlog that
// is not growing.
func (p phaseSpec) judge(w *windowStats) string {
	if w.n < p.minSamples {
		return fmt.Sprintf("%d samples < %d", w.n, p.minSamples)
	}
	if !p.paced {
		return ""
	}
	if w.achievedShare < 0.99 {
		return fmt.Sprintf("generator achieved %.3f of its schedule", w.achievedShare)
	}
	if limit := backlogTicks * (int(p.rate/1000) + 1); w.inflightEnd-w.inflightStart > limit {
		return fmt.Sprintf("backlog grew by %d (> %d ticks' worth = %d)", w.inflightEnd-w.inflightStart, backlogTicks, limit)
	}
	return ""
}
