package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/wire"
)

func TestSeriesRingWindow(t *testing.T) {
	s := NewSeries(4)
	if s.Cap() != 4 {
		t.Fatalf("cap = %d, want 4", s.Cap())
	}
	base := time.Unix(0, 0)
	for i := 0; i < 6; i++ {
		s.Append(Point{T: base.Add(time.Duration(i) * time.Second), V: float64(i)})
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	pts := s.Points()
	for i, p := range pts {
		want := float64(i + 2) // 0 and 1 were evicted
		if p.V != want {
			t.Errorf("point %d = %v, want %v", i, p.V, want)
		}
		if i > 0 && !pts[i-1].T.Before(p.T) {
			t.Errorf("points not time-ordered at %d: %v !< %v", i, pts[i-1].T, p.T)
		}
	}
	last, ok := s.Last()
	if !ok || last.V != 5 {
		t.Fatalf("last = %v/%v, want 5/true", last.V, ok)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries(0) // 0 falls back to the default capacity
	if s.Cap() <= 0 {
		t.Fatalf("default cap = %d, want > 0", s.Cap())
	}
	if _, ok := s.Last(); ok {
		t.Fatal("Last on empty series reported ok")
	}
	if pts := s.Points(); len(pts) != 0 {
		t.Fatalf("Points on empty series = %v", pts)
	}
}

func TestReportEncodeDecodeRoundtrip(t *testing.T) {
	r := &Report{
		Node:     "n1",
		Seq:      7,
		Time:     time.Unix(42, 0),
		Elapsed:  time.Second,
		Counters: map[string]int64{"x": 3},
		Rates:    map[string]float64{"x": 3},
		Gauges:   map[string]float64{"g": 1.5},
	}
	data, err := r.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeReport(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Node != "n1" || got.Seq != 7 || got.Counters["x"] != 3 || got.Gauges["g"] != 1.5 {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}

	if _, err := (&Report{}).Encode(); err == nil {
		t.Fatal("encoding a nodeless report succeeded")
	}
	if _, err := DecodeReport([]byte(`{"seq":1}`)); err == nil {
		t.Fatal("decoding a nodeless report succeeded")
	}
	if _, err := DecodeReport([]byte("not json")); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
	// Reports once carried the publisher's per-peer detector view; one from
	// such a publisher still decodes, its "health" key ignored.
	old := `{"node":"n0","seq":2,"health":[{"peer":"p","breaker":"closed"}],"gauges":{"g":1}}`
	if got, err := DecodeReport([]byte(old)); err != nil || got.Seq != 2 || got.Gauges["g"] != 1 {
		t.Fatalf("report with a health key: %+v, %v", got, err)
	}
}

// TestPublisherDeltasAndRates walks a publisher through two intervals on a
// virtual clock and checks each report carries exactly that interval's
// counter delta and per-second rate.
func TestPublisherDeltasAndRates(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	reg := obs.NewRegistry()
	var got []*Report
	p, err := NewPublisher(PublisherOptions{
		Node:     "n1",
		Registry: reg,
		Clock:    clock,
		Send:     func(r *Report) error { got = append(got, r); return nil },
	})
	if err != nil {
		t.Fatalf("new publisher: %v", err)
	}
	defer p.Close() //nolint:errcheck

	reg.Counter("reqs").Inc(10)
	reg.Gauge("depth").Set(4)
	clock.Advance(2 * time.Second)
	if err := p.Publish(); err != nil {
		t.Fatalf("publish 1: %v", err)
	}

	reg.Counter("reqs").Inc(6)
	clock.Advance(3 * time.Second)
	if err := p.Publish(); err != nil {
		t.Fatalf("publish 2: %v", err)
	}

	if len(got) != 2 {
		t.Fatalf("sent %d reports, want 2", len(got))
	}
	r1, r2 := got[0], got[1]
	if r1.Seq != 1 || r2.Seq != 2 {
		t.Errorf("seqs = %d,%d, want 1,2", r1.Seq, r2.Seq)
	}
	if !r2.Time.After(r1.Time) {
		t.Errorf("timestamps not increasing: %v then %v", r1.Time, r2.Time)
	}
	if r1.Counters["reqs"] != 10 {
		t.Errorf("report 1 delta = %d, want 10", r1.Counters["reqs"])
	}
	if r1.Rates["reqs"] != 5 { // 10 over 2s
		t.Errorf("report 1 rate = %v, want 5", r1.Rates["reqs"])
	}
	if r1.Gauges["depth"] != 4 {
		t.Errorf("report 1 gauge = %v, want 4", r1.Gauges["depth"])
	}
	if r2.Counters["reqs"] != 6 {
		t.Errorf("report 2 delta = %d, want 6 (delta, not cumulative)", r2.Counters["reqs"])
	}
	if r2.Rates["reqs"] != 2 { // 6 over 3s
		t.Errorf("report 2 rate = %v, want 2", r2.Rates["reqs"])
	}
}

// publishFixture is a publisher over a registry with one counter that moves
// between reports and a Send that drops them: what a node pays a publish
// before the network. publish bumps the counter and publishes.
func publishFixture(tb testing.TB) (publish func()) {
	reg := obs.NewRegistry()
	reg.Counter("reqs").Inc(100)
	p, err := NewPublisher(PublisherOptions{
		Node:     "bench",
		Registry: reg,
		Send:     func(*Report) error { return nil },
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = p.Close() })
	return func() {
		reg.Counter("reqs").Inc(1)
		if err := p.Publish(); err != nil {
			tb.Fatal(err)
		}
	}
}

// A publish of one moving counter allocates eleven objects: the snapshot's
// three maps and its counter bucket, the same four for the delta, the rate map
// and its bucket, and the Report.
func TestPublishAllocs(t *testing.T) {
	publish := publishFixture(t)
	publish()
	const want = 11
	if allocs := testing.AllocsPerRun(500, publish); allocs > want {
		t.Fatalf("Publish allocates %.2f objects, want at most %d", allocs, want)
	}
}

func BenchmarkPublish(b *testing.B) {
	publish := publishFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		publish()
	}
}

func TestPublisherValidation(t *testing.T) {
	if _, err := NewPublisher(PublisherOptions{Send: func(*Report) error { return nil }}); err == nil {
		t.Fatal("publisher without a node name built")
	}
	if _, err := NewPublisher(PublisherOptions{Node: "n"}); err == nil {
		t.Fatal("publisher without a send hook built")
	}
}

// TestPublisherStartLoop drives the periodic loop on a virtual clock.
func TestPublisherStartLoop(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	sent := make(chan *Report, 16)
	p, err := NewPublisher(PublisherOptions{
		Node:     "n1",
		Registry: obs.NewRegistry(),
		Clock:    clock,
		Interval: time.Second,
		Send:     func(r *Report) error { sent <- r; return nil },
	})
	if err != nil {
		t.Fatalf("new publisher: %v", err)
	}
	p.Start()
	p.Start() // second Start is a no-op, not a second loop

	for i := 0; i < 3; i++ {
		// The loop goroutine races to re-register its timer after each
		// publish; AdvanceToNext reports false until a waiter exists.
		deadline := time.Now().Add(5 * time.Second)
		for !clock.AdvanceToNext() {
			if time.Now().After(deadline) {
				t.Fatalf("loop never armed its timer before tick %d", i)
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case r := <-sent:
			if r.Seq != uint64(i+1) {
				t.Fatalf("tick %d seq = %d, want %d", i, r.Seq, i+1)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no report after virtual tick %d", i)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatalf("second close: %v", err)
	}
}

func TestAggregatorRejectsStaleSeqAndTime(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	a := NewAggregator(AggregatorOptions{Clock: clock, Registry: obs.NewRegistry()})
	base := time.Unix(100, 0)
	ok := &Report{Node: "n1", Seq: 2, Time: base, Counters: map[string]int64{"x": 1}}
	if err := a.Ingest(ok); err != nil {
		t.Fatalf("first ingest: %v", err)
	}
	if err := a.Ingest(&Report{Node: "n1", Seq: 2, Time: base.Add(time.Second)}); err == nil {
		t.Fatal("duplicate seq accepted")
	}
	if err := a.Ingest(&Report{Node: "n1", Seq: 3, Time: base}); err == nil {
		t.Fatal("non-advancing timestamp accepted")
	}
	if err := a.Ingest(&Report{Node: "n1", Seq: 3, Time: base.Add(time.Second)}); err != nil {
		t.Fatalf("valid successor rejected: %v", err)
	}
	if err := a.Ingest(nil); err == nil {
		t.Fatal("nil report accepted")
	}
	if err := a.Ingest(&Report{Seq: 1, Time: base}); err == nil {
		t.Fatal("nodeless report accepted")
	}
}

func TestAggregatorSeriesAndTotals(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	a := NewAggregator(AggregatorOptions{Clock: clock, Registry: obs.NewRegistry()})
	base := time.Unix(0, 0)
	for i := 1; i <= 3; i++ {
		r := &Report{
			Node:     "n1",
			Seq:      uint64(i),
			Time:     base.Add(time.Duration(i) * time.Second),
			Counters: map[string]int64{"reqs": 10},
			Rates:    map[string]float64{"reqs": 10},
			Gauges:   map[string]float64{"depth": float64(i)},
		}
		if err := a.Ingest(r); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	// Counter series accumulate deltas into running totals.
	pts := a.Series("n1", "reqs")
	if len(pts) != 3 || pts[0].V != 10 || pts[1].V != 20 || pts[2].V != 30 {
		t.Fatalf("counter series = %v, want cumulative 10,20,30", pts)
	}
	// Rates land on a derived ".rate" series.
	if pts := a.Series("n1", "reqs.rate"); len(pts) != 3 || pts[0].V != 10 {
		t.Fatalf("rate series = %v", pts)
	}
	// Gauges are stored as-is.
	if pts := a.Series("n1", "depth"); len(pts) != 3 || pts[2].V != 3 {
		t.Fatalf("gauge series = %v", pts)
	}
	if a.Series("n1", "nope") != nil || a.Series("ghost", "reqs") != nil {
		t.Fatal("absent series not nil")
	}
	if got := a.Nodes(); len(got) != 1 || got[0] != "n1" {
		t.Fatalf("nodes = %v", got)
	}
}

func TestAggregatorFreshness(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	a := NewAggregator(AggregatorOptions{Clock: clock, StaleAfter: 3 * time.Second, Registry: obs.NewRegistry()})
	if a.Fresh("n1") {
		t.Fatal("unknown node fresh")
	}
	if err := a.Ingest(&Report{Node: "n1", Seq: 1, Time: clock.Now()}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if !a.Fresh("n1") {
		t.Fatal("node not fresh right after ingest")
	}
	clock.Advance(3 * time.Second)
	if !a.Fresh("n1") {
		t.Fatal("node stale exactly at the horizon (bound is inclusive)")
	}
	clock.Advance(time.Millisecond)
	if a.Fresh("n1") {
		t.Fatal("node still fresh past the horizon")
	}
	// A new report restores freshness.
	if err := a.Ingest(&Report{Node: "n1", Seq: 2, Time: clock.Now()}); err != nil {
		t.Fatalf("reingest: %v", err)
	}
	if !a.Fresh("n1") {
		t.Fatal("node not fresh after recovery report")
	}
}

func TestAggregatorHandlerRoundtrip(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	a := NewAggregator(AggregatorOptions{Clock: clock, Registry: obs.NewRegistry()})
	h := a.Handler()

	r := &Report{Node: "n9", Seq: 1, Time: time.Unix(5, 0), Counters: map[string]int64{"x": 2}}
	payload, err := r.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	reply, err := h(&wire.Message{Kind: wire.KindRequest, Topic: Topic, Payload: payload})
	if err != nil {
		t.Fatalf("handler: %v", err)
	}
	if reply.Kind != wire.KindAck {
		t.Fatalf("reply kind = %v, want ack", reply.Kind)
	}
	if got := a.Series("n9", "x"); len(got) != 1 || got[0].V != 2 {
		t.Fatalf("series after handler ingest = %v", got)
	}

	if _, err := h(&wire.Message{Kind: wire.KindRequest, Topic: Topic, Payload: []byte("junk")}); err == nil {
		t.Fatal("handler accepted a garbage payload")
	}
	// Replay of the same report must surface as an error reply.
	if _, err := h(&wire.Message{Kind: wire.KindRequest, Topic: Topic, Payload: payload}); err == nil {
		t.Fatal("handler accepted a replayed report")
	}
}

func TestViewMergesCluster(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	a := NewAggregator(AggregatorOptions{Clock: clock, StaleAfter: 2 * time.Second, Registry: obs.NewRegistry()})
	if err := a.Ingest(&Report{Node: "b", Seq: 1, Time: clock.Now(), Counters: map[string]int64{"x": 1}}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second) // b goes stale
	if err := a.Ingest(&Report{Node: "a", Seq: 1, Time: clock.Now(), Gauges: map[string]float64{"g": 9}}); err != nil {
		t.Fatal(err)
	}
	v := a.View()
	if len(v.Nodes) != 2 || v.Nodes[0].Node != "a" || v.Nodes[1].Node != "b" {
		t.Fatalf("view nodes = %+v, want sorted a,b", v.Nodes)
	}
	if !v.Nodes[0].Fresh || v.Nodes[1].Fresh {
		t.Fatalf("freshness = %v,%v, want fresh a / stale b", v.Nodes[0].Fresh, v.Nodes[1].Fresh)
	}
	if v.StaleAfter != 2*time.Second {
		t.Fatalf("view staleAfter = %v", v.StaleAfter)
	}
	if len(v.Nodes[1].Series["x"]) != 1 {
		t.Fatalf("b's series missing from view: %+v", v.Nodes[1].Series)
	}
}

func TestRenderDash(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	a := NewAggregator(AggregatorOptions{Clock: clock, StaleAfter: 2 * time.Second, Registry: obs.NewRegistry()})
	base := clock.Now()
	for i := 1; i <= 5; i++ {
		if err := a.Ingest(&Report{
			Node:     "n<1>", // markup in a node name must come out escaped
			Seq:      uint64(i),
			Time:     base.Add(time.Duration(i) * time.Second),
			Counters: map[string]int64{"reqs": int64(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(10 * time.Second)
	if err := a.Ingest(&Report{Node: "dead", Seq: 1, Time: clock.Now()}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second) // now "dead" is stale too... and n<1> long stale

	page := string(RenderDashAlerts(a.View(), nil))
	for _, want := range []string{
		"<!DOCTYPE html", "<svg", "polyline", "stale", "reqs", "n&lt;1&gt;",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("dash missing %q", want)
		}
	}
	if strings.Contains(page, "n<1>") {
		t.Error("node name not HTML-escaped")
	}
	if strings.Contains(page, "<script") || bytes.Contains([]byte(page), []byte("http://")) {
		t.Error("dash must be self-contained: no scripts, no external fetches")
	}

	// An empty cluster still renders a page.
	empty := string(RenderDashAlerts(NewAggregator(AggregatorOptions{Registry: obs.NewRegistry()}).View(), nil))
	if !strings.Contains(empty, "<!DOCTYPE html") {
		t.Error("empty dash is not a page")
	}
}
