package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// stampsAt builds a request's stamps from the gaps between them, starting at
// t0: gaps[i] is stamp i+1 minus stamp i.
func stampsAt(t0 int64, gaps [numStamps - 1]int64) (st [numStamps]int64) {
	st[0] = t0
	for i, g := range gaps {
		st[i+1] = st[i] + g
	}
	return st
}

func sumSegments(seg [numSegments]int64) (sum int64) {
	for _, v := range seg {
		sum += v
	}
	return sum
}

func TestSegmentsOfASyntheticRequestSumToItsRoundTrip(t *testing.T) {
	st := stampsAt(1000, [numStamps - 1]int64{3, 40, 5, 7, 2, 11, 30, 6, 9})
	seg, ok := tile(&st)
	if !ok {
		t.Fatal("a complete, ordered request was not tiled")
	}
	want := [numSegments]int64{
		segClientDown: 3, segSend: 40 + 30, segHopOut: 5, segServerUp: 7,
		segHandler: 2, segServerDown: 11, segHopBack: 6, segClientUp: 9,
	}
	if seg != want {
		t.Errorf("segments = %v, want %v", seg, want)
	}
	if got, rtt := sumSegments(seg), st[stDone]-st[stCall]; got != rtt {
		t.Errorf("segments sum to %d, round trip is %d", got, rtt)
	}
}

func TestASendThatOutlivesThePeersRecvIsCutThere(t *testing.T) {
	// Both Sends return after the other side already holds the message. The
	// overlap is off the critical path: the send segment ends at the peer's
	// Recv, the hop is zero, and the tiling still adds up.
	st := stampsAt(1000, [numStamps - 1]int64{3, 40, 5, 7, 2, 11, 30, 6, 9})
	st[stCSendOut] = st[stSRecv] + 25
	st[stSSendOut] = st[stCRecv] + 4
	seg, ok := tile(&st)
	if !ok {
		t.Fatal("not tiled")
	}
	if seg[segHopOut] != 0 || seg[segHopBack] != 0 {
		t.Errorf("hops = %d, %d, want 0, 0", seg[segHopOut], seg[segHopBack])
	}
	if want := (st[stSRecv] - st[stCSendIn]) + (st[stCRecv] - st[stSSendIn]); seg[segSend] != want {
		t.Errorf("send = %d, want %d", seg[segSend], want)
	}
	if got, rtt := sumSegments(seg), st[stDone]-st[stCall]; got != rtt {
		t.Errorf("segments sum to %d, round trip is %d", got, rtt)
	}
}

func TestMissingOrMisorderedStampExcludesTheRequest(t *testing.T) {
	st := stampsAt(1000, [numStamps - 1]int64{3, 40, 5, 7, 2, 11, 30, 6, 9})
	st[stHIn] = 0
	if _, ok := tile(&st); ok {
		t.Error("a request with no handler-entry stamp was tiled")
	}
	st = stampsAt(1000, [numStamps - 1]int64{3, 40, 5, 7, 2, 11, 30, 6, 9})
	st[stHOut] = st[stHIn] - 1
	if _, ok := tile(&st); ok {
		t.Error("a request whose handler returned before it was entered was tiled")
	}
}

func TestTracerTilesCompleteRequestsAndCountsTheRest(t *testing.T) {
	tr := newTracer(0xfeed, 2, 8, 1)
	full := stampsAt(1000, [numStamps - 1]int64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	stampAll := func(seq uint64, st [numStamps]int64, skip int) {
		for k, at := range st {
			if k != skip {
				tr.stamp(seq, k, 0, at)
			}
		}
	}
	stampAll(seqOf(0, 0), full, -1)
	stampAll(seqOf(0, 1), full, stSRecv) // lost between the two sides
	stampAll(seqOf(0, 2), full, -1)
	stampAll(seqOf(1, 0), full, -1)
	tr.stamp(seqOf(0, 0), stDone, 0, 1) // a second stamp must not move the first
	tr.stamp(seqOf(5, 0), stCall, 0, 1) // no such stream: dropped, not a panic
	tr.stamp(seqOf(0, 99), stCall, 0, 1)

	tabs := tr.takeSegments()
	if len(tabs) != 2 {
		t.Fatalf("%d tables, want one per stream", len(tabs))
	}
	if tabs[0].tiled != 2 || tabs[0].excluded != 1 || tabs[1].tiled != 1 {
		t.Errorf("stream 0: %d tiled, %d excluded; stream 1: %d tiled; want 2, 1, 1", tabs[0].tiled, tabs[0].excluded, tabs[1].tiled)
	}
	all := mergeSegments(tabs...)
	sum := 0.0
	for i := range segmentNames {
		sum += all.meanUs(i)
	}
	if diff := sum - all.rttUs(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("segment means sum to %v us, mean round trip is %v us", sum, all.rttUs())
	}
	if got, want := all.rttUs(), float64(full[stDone]-full[stCall])/1e3; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("mean round trip = %v us, want %v", got, want)
	}
	if again := mergeSegments(tr.takeSegments()...); again.tiled != 0 || again.excluded != 0 {
		t.Errorf("after takeSegments the stamps are still there: %d tiled, %d excluded", again.tiled, again.excluded)
	}
	var off *tracer
	off.stamp(1, stCall, 0, 1) // tracing off is a nil tracer
	if off.takeSegments() != nil || mergeSegments(off.takeSegments()...) != nil {
		t.Error("a nil tracer produced segments")
	}
}

func TestTheLastCopySetsAFannedOutRequestsTime(t *testing.T) {
	tr := newTracer(0xfeed, 1, 4, 3)
	seq := seqOf(0, 0)
	for k, at := range []int64{100, 101, 105, 110, 110, 110} {
		tr.stamp(seq, k, 0, at)
	}
	for c, base := range []int64{120, 150, 130} { // copy 1 arrives last
		tr.stamp(seq, stSSendIn, c, base)
		tr.stamp(seq, stSSendOut, c, base+2)
		tr.stamp(seq, stCRecv, c, base+5)
		tr.stamp(seq, stDone, c, base+9)
	}
	st, ok := tr.stampsOf(0, 0)
	if !ok || st[stDone] != 159 || st[stSSendIn] != 150 {
		t.Errorf("stamps = %v (ok %v), want the per-copy stamps of copy 1: send at 150, done at 159", st, ok)
	}
	seg, ok := tile(&st)
	if !ok || sumSegments(seg) != 59 {
		t.Errorf("segments %v sum to %d, want the 59 from call to last copy", seg, sumSegments(seg))
	}
}

func TestPayloadHeaderMarksTheBenchmarksOwnMessages(t *testing.T) {
	p := make([]byte, 64)
	putHeader(p, seqOf(1, 77), 0xabcdef)
	if seq, ok := headerOf(p, 0xabcdef); !ok || seq != seqOf(1, 77) {
		t.Errorf("headerOf = %x, %v", seq, ok)
	}
	if _, ok := headerOf(p, 0x123456); ok {
		t.Error("another run's magic was accepted")
	}
	if _, ok := headerOf(p[:payloadHeader-1], 0xabcdef); ok {
		t.Error("a short payload was accepted")
	}
}

func TestChromeTraceLoadsAndChildrenTileTheirParent(t *testing.T) {
	st := stampsAt(2000, [numStamps - 1]int64{3000, 40000, 5000, 7000, 2000, 11000, 30000, 6000, 9000})
	evs := chromeEvents("rtt", 1, []requestSpans{{seq: seqOf(0, 5), st: st}})
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeChromeTrace(path, evs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Args struct {
				Request uint64
				Span    string
				Parent  string
			}
		}
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("the trace file is not JSON: %v", err)
	}
	if len(file.TraceEvents) != 10 {
		t.Fatalf("%d events, want the request and its 9 pieces", len(file.TraceEvents))
	}
	parent := file.TraceEvents[0]
	if parent.Name != "request" || parent.Args.Parent != "" || parent.Args.Request != seqOf(0, 5) {
		t.Errorf("first event = %+v, want the parent span of the request", parent)
	}
	at, sum := parent.Ts, 0.0
	for _, ev := range file.TraceEvents[1:] {
		if ev.Ph != "X" || ev.Args.Parent != parent.Args.Span || ev.Args.Request != parent.Args.Request {
			t.Errorf("child %+v does not name its request and parent", ev)
		}
		if diff := ev.Ts - at; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("child %s starts at %v, want where the previous one ended, %v", ev.Name, ev.Ts, at)
		}
		at += ev.Dur
		sum += ev.Dur
	}
	if diff := sum - parent.Dur; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("children last %v us, their parent %v us", sum, parent.Dur)
	}
}
