package main

import (
	"strings"
	"testing"
	"time"
)

// windowAt is the monitor's reads around the one-second window starting at
// t0, cut into two slices, with CPU and allocation counters advancing by fixed
// steps across it.
func windowAt(t0 int64) windowRun {
	half := int64(time.Second) / 2
	return windowRun{
		from:           boundary{t: t0, cpuNs: 1_000_000, mallocs: 500, allocBytes: 10_000, gcCycles: 2},
		to:             boundary{t: t0 + 2*half, cpuNs: 3_000_000, mallocs: 1800, allocBytes: 110_000, gcCycles: 5},
		edges:          []edge{{t: t0, cpuNs: 1_000_000}, {t: t0 + half, cpuNs: 1_500_000}, {t: t0 + 2*half, cpuNs: 3_000_000}},
		goroutinesPeak: 9,
	}
}

func TestCutWindowBucketsCountsAndPenalises(t *testing.T) {
	sec := int64(time.Second)
	t0 := 10 * sec
	log := &streamLog{peakInflight: 3}
	// In the window: 100 OK requests of 100..199 us, due every 10 ms.
	for i := int64(0); i < 100; i++ {
		due := t0 + i*10*ms
		log.samples = append(log.samples, sample{due: due, issue: due + 5000, done: due + (100+i)*1000})
	}
	// Lead-in: due before the window, collected inside it. Run-off: due after.
	log.samples = append(log.samples, sample{due: t0 - 1, issue: t0 - 1, done: t0 + 10})
	log.samples = append(log.samples, sample{due: t0 + sec, issue: t0 + sec, done: t0 + sec + 1})

	spec := phaseSpec{name: "t", window: time.Second, minSamples: 100, penaltyNs: int64(time.Second), limitNs: 150_000}
	w := cutWindow(spec, windowAt(t0), []*streamLog{log}, false)
	if w.attempted != 100 || w.n != 100 || w.failed != 0 {
		t.Errorf("attempted %d, n %d, failed %d", w.attempted, w.n, w.failed)
	}
	if w.completed != 101 { // the lead-in request completed inside the window
		t.Errorf("completed %d, want 101", w.completed)
	}
	if w.p50 != 149 || w.p90 != 189 || w.p99 != 198 {
		t.Errorf("p50 %v, p90 %v, p99 %v us, want 149, 189, 198", w.p50, w.p90, w.p99)
	}
	if w.lateP50 != 5 || w.lateMeanUs != 5 {
		t.Errorf("lateness p50 %v, mean %v us, want 5", w.lateP50, w.lateMeanUs)
	}
	if w.missed != 49 { // 151..199 us are past the 150 us deadline
		t.Errorf("missed %d, want 49", w.missed)
	}
	if w.inflightStart != 1 || w.inflightEnd != 1 || w.inflightPeak != 3 || w.goroutinesPeak != 9 {
		t.Errorf("in flight %d > %d, peak %d, goroutines %d", w.inflightStart, w.inflightEnd, w.inflightPeak, w.goroutinesPeak)
	}
	if w.cpuUsPerReq != 2000.0/101 || w.allocsPerReq != 1300.0/101 || w.bytesPerReq != 100_000.0/101 || w.gcCycles != 3 {
		t.Errorf("cpu %v us, allocs %v, bytes %v, gc %d", w.cpuUsPerReq, w.allocsPerReq, w.bytesPerReq, w.gcCycles)
	}
	if w.achievedShare != 1 || w.invalid != "" {
		t.Errorf("achieved %v, flagged %q", w.achievedShare, w.invalid)
	}
	// The two slices: 50 requests due in each, the lead-in request completed
	// in the first, a quarter of the CPU time there and three quarters in the
	// second, each with the median of its own latencies.
	want := []sliceStats{
		{seconds: 0.5, attempted: 50, completed: 51, cpuNs: 500_000, p50: 124},
		{seconds: 0.5, attempted: 50, completed: 50, cpuNs: 1_500_000, p50: 174},
	}
	if len(w.slices) != 2 || w.slices[0] != want[0] || w.slices[1] != want[1] {
		t.Errorf("slices = %+v, want %+v", w.slices, want)
	}
	if got := w.slices[0].perSec(); got != 102 {
		t.Errorf("first slice: %v completed per second, want 102", got)
	}
	if us, ok := w.slices[1].cpuUsPer(false); !ok || us != 30 {
		t.Errorf("second slice: %v us of CPU per completion, want 30", us)
	}
	if _, ok := (&sliceStats{seconds: 0.1}).cpuUsPer(true); ok {
		t.Error("a slice nothing was due in has a CPU cost per request")
	}
	// Divided per attempt instead of per completion.
	if per := cutWindow(spec, windowAt(t0), []*streamLog{log}, true); per.cpuUsPerReq != 20 {
		t.Errorf("per attempt: cpu %v us, want 2000/100", per.cpuUsPerReq)
	}

	// The next window: 98 OK, one failed fast, one refused fast.
	log.samples = log.samples[:0]
	for i := int64(0); i < 100; i++ {
		due := t0 + sec + i*10*ms
		s := sample{due: due, issue: due, done: due + 50_000}
		switch i {
		case 10:
			s.out = outcomeFailed
		case 20:
			s.out = outcomeShed
		}
		log.samples = append(log.samples, s)
	}
	w = cutWindow(spec, windowAt(t0+sec), []*streamLog{log}, false)
	if w.failed != 1 || w.shed != 1 || w.completed != 98 || w.missed != 2 {
		t.Errorf("failed %d, shed %d, completed %d, missed %d", w.failed, w.shed, w.completed, w.missed)
	}
	// A failure is charged the penalty, so it is the window's slowest sample.
	if w.p999 != 1e6 || w.p50 != 50 {
		t.Errorf("p99.9 %v, p50 %v us, want the 1 s penalty and 50", w.p999, w.p50)
	}
}

func TestPhasesAccumulateWindowsOverRounds(t *testing.T) {
	ps := phases{}
	spec := phaseSpec{name: "capacity"}
	seg := &segmentTable{tiled: 1, rttNs: 1000}
	ps.add(spec, windowStats{attempted: 10, failed: 1, completedPerSec: 100, goroutinesPeak: 4}, seg, map[string]float64{"x": 2})
	ps.add(spec, windowStats{attempted: 20, shed: 3, completedPerSec: 300, goroutinesPeak: 9, invalid: "why"}, seg, map[string]float64{"x": 4})
	ps.add(spec, windowStats{attempted: 30, missed: 2, completedPerSec: 200, goroutinesPeak: 5}, nil, nil)
	p := ps["capacity"]
	if len(ps) != 1 || len(p.windows) != 3 || p.attempted != 60 || p.failed != 1 || p.shed != 3 || p.missed != 2 {
		t.Errorf("phase = %+v", p)
	}
	if got := p.over(func(w *windowStats) float64 { return w.completedPerSec }).Median; got != 200 {
		t.Errorf("median over the rounds = %v, want 200", got)
	}
	if got := p.peak(func(w *windowStats) float64 { return float64(w.goroutinesPeak) }); got != 9 {
		t.Errorf("peak = %v, want 9", got)
	}
	if p.invalidWindows() != 1 || p.segments.tiled != 2 || p.extra["x"] != 6 {
		t.Errorf("invalid %d, tiled %d, extra %v", p.invalidWindows(), p.segments.tiled, p.extra)
	}
}

func TestWindowValidityRules(t *testing.T) {
	paced := phaseSpec{paced: true, rate: 40000, minSamples: 1000}
	ok := windowStats{n: 100000, achievedShare: 1, inflightStart: 40, inflightEnd: 80}
	if why := paced.judge(&ok); why != "" {
		t.Errorf("a clean window was flagged: %s", why)
	}
	for _, c := range []struct {
		name string
		edit func(*windowStats)
		want string
	}{
		{"too few samples", func(w *windowStats) { w.n = 999 }, "samples"},
		{"generator behind", func(w *windowStats) { w.achievedShare = 0.98 }, "achieved"},
		{"growing backlog", func(w *windowStats) { w.inflightEnd = w.inflightStart + backlogTicks*41 + 1 }, "backlog"},
	} {
		w := ok
		c.edit(&w)
		if why := paced.judge(&w); !strings.Contains(why, c.want) {
			t.Errorf("%s: judged %q, want a reason mentioning %q", c.name, why, c.want)
		}
	}
	// A closed loop cannot fall behind a schedule it does not have.
	closed := phaseSpec{minSamples: 1000}
	w := ok
	w.achievedShare, w.inflightEnd = 0, 100000
	if why := closed.judge(&w); why != "" {
		t.Errorf("closed loop flagged: %s", why)
	}
}
