package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"ndsm/internal/health"
	"ndsm/internal/obs"
	"ndsm/internal/reqlog"
	"ndsm/internal/simtime"
	"ndsm/internal/telemetry"
	"ndsm/internal/trace"
)

// fullRecorder builds a recorder with every source populated.
func fullRecorder(t *testing.T, vc *simtime.Virtual, opts Options) (*Recorder, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter("srv.lane.control.admitted").Inc(7)
	reg.Counter("srv.lane.bulk.shed").Inc(3)
	reg.Counter("srv.shed").Inc(3)
	reg.Counter("unrelated.requests").Inc(100)
	reg.Gauge("srv.lane.control.queued").Set(2)

	col := trace.NewCollector(16)
	for i := 0; i < 4; i++ {
		col.Record(trace.Span{TraceID: 1, SpanID: uint64(i + 1), Name: "op", Node: "n1",
			Start: vc.Now(), End: vc.Now().Add(time.Millisecond)})
	}

	mon := health.NewMonitor(health.Options{Clock: vc})
	mon.Heartbeat("peer-1")

	agg := telemetry.NewAggregator(telemetry.AggregatorOptions{
		Clock: vc, StaleAfter: 5 * time.Second, Registry: obs.NewRegistry(),
	})
	if err := agg.Ingest(&telemetry.Report{Node: "n1", Seq: 1, Time: vc.Now(),
		Counters: map[string]int64{"x": 1}}); err != nil {
		t.Fatal(err)
	}

	opts.Clock = vc
	opts.Spans = col
	opts.Metrics = reg
	opts.Health = mon
	opts.Aggregator = agg
	return NewRecorder(opts), reg
}

// TestSnapshotCapturesAllPlanes cuts one bundle and checks every plane
// landed: spans, obs snapshot + lane extraction, health, telemetry
// freshness, and the trigger's window values.
func TestSnapshotCapturesAllPlanes(t *testing.T) {
	vc := simtime.NewVirtual(time.Unix(0, 0))
	rec, reg := fullRecorder(t, vc, Options{})

	b := rec.Snapshot(Trigger{
		Objective: "ctl-miss", Node: "n1", Severity: "critical",
		Windows: map[string]float64{"burnLong": 6.2, "burnShort": 9.1},
	})
	if b == nil {
		t.Fatal("snapshot suppressed with no rate limit")
	}
	if b.Seq != 1 || b.Trigger.Objective != "ctl-miss" || b.Trigger.Windows["burnLong"] != 6.2 {
		t.Fatalf("bundle header wrong: %+v", b)
	}
	if len(b.Spans) != 4 || b.SpanTotal != 4 {
		t.Fatalf("spans: got %d (total %d), want 4", len(b.Spans), b.SpanTotal)
	}
	if b.Obs == nil || b.Obs.Counters["srv.lane.control.admitted"] != 7 {
		t.Fatalf("obs snapshot missing: %+v", b.Obs)
	}
	if b.ObsDelta != nil {
		t.Fatal("first bundle has an obs delta")
	}
	for _, k := range []string{"srv.lane.control.admitted", "srv.lane.bulk.shed", "srv.shed", "srv.lane.control.queued"} {
		if _, ok := b.Lanes[k]; !ok {
			t.Fatalf("lane extraction missing %s: %+v", k, b.Lanes)
		}
	}
	if _, ok := b.Lanes["unrelated.requests"]; ok {
		t.Fatal("lane extraction swept in unrelated counters")
	}
	if len(b.Health) != 1 || b.Health[0].Peer != "peer-1" {
		t.Fatalf("health states: %+v", b.Health)
	}
	if len(b.Telemetry) != 1 || b.Telemetry[0].Node != "n1" || !b.Telemetry[0].Fresh {
		t.Fatalf("telemetry freshness: %+v", b.Telemetry)
	}

	// A second bundle carries the delta since the first.
	reg.Counter("srv.lane.control.admitted").Inc(5)
	vc.Advance(time.Second)
	b2 := rec.Snapshot(Trigger{Objective: "ctl-miss", Severity: "critical"})
	if b2.ObsDelta == nil || b2.ObsDelta.Counters["srv.lane.control.admitted"] != 5 {
		t.Fatalf("second bundle delta: %+v", b2.ObsDelta)
	}
}

// TestRingBoundAndRateLimit checks eviction and MinInterval suppression.
func TestRingBoundAndRateLimit(t *testing.T) {
	vc := simtime.NewVirtual(time.Unix(0, 0))
	rec, _ := fullRecorder(t, vc, Options{MinInterval: time.Second})

	const cuts = capacity + 2
	for i := 0; i < cuts; i++ {
		vc.Advance(time.Second)
		if b := rec.Snapshot(Trigger{Objective: fmt.Sprintf("o%d", i), Severity: "critical"}); b == nil {
			t.Fatalf("snapshot %d suppressed despite interval", i)
		}
	}
	if rec.Len() != capacity || rec.Total() != cuts {
		t.Fatalf("ring len %d total %d, want %d/%d", rec.Len(), rec.Total(), capacity, cuts)
	}
	bundles := rec.Bundles()
	first, last := bundles[0].Trigger.Objective, bundles[capacity-1].Trigger.Objective
	if first != "o2" || last != fmt.Sprintf("o%d", cuts-1) {
		t.Fatalf("eviction order wrong: %s..%s", first, last)
	}

	// A flapping alert inside MinInterval is counted, not recorded.
	if b := rec.Snapshot(Trigger{Objective: "flap", Severity: "critical"}); b != nil {
		t.Fatal("rate limit did not suppress")
	}
	if rec.Suppressed() != 1 || rec.Total() != cuts {
		t.Fatalf("suppressed %d total %d, want 1/%d", rec.Suppressed(), rec.Total(), cuts)
	}
}

// TestMaxSpansKeepsNewest bounds the per-bundle span copy to the tail.
func TestMaxSpansKeepsNewest(t *testing.T) {
	vc := simtime.NewVirtual(time.Unix(0, 0))
	const n = maxSpans + 10
	col := trace.NewCollector(n)
	for i := 0; i < n; i++ {
		col.Record(trace.Span{TraceID: 1, SpanID: uint64(i + 1), Name: "op", Node: "n1"})
	}
	rec := NewRecorder(Options{Clock: vc, Spans: col})
	b := rec.Snapshot(Trigger{Objective: "x", Severity: "critical"})
	if len(b.Spans) != maxSpans || b.Spans[0].SpanID != n-maxSpans+1 || b.Spans[maxSpans-1].SpanID != n {
		t.Fatalf("span tail wrong: %d spans, first %d", len(b.Spans), b.Spans[0].SpanID)
	}
}

// TestBundleCarriesRequestTail pins the wide-event plane: a bundle embeds
// the reqlog tail ring (sheds and errors), newest first, bounded by
// maxRequests, and healthy sampled records stay out of it.
func TestBundleCarriesRequestTail(t *testing.T) {
	vc := simtime.NewVirtual(time.Unix(0, 0))
	// Capacity 256 keeps a 192-record tail ring, room for more sheds than a
	// bundle copies.
	rl := reqlog.New(reqlog.Options{Capacity: 256, SampleEvery: 1, Registry: obs.NewRegistry()})
	const sheds = maxRequests + 5
	for i := 0; i < sheds; i++ {
		rl.Record(reqlog.Record{
			Time: vc.Now().Add(time.Duration(i) * time.Second), Kind: reqlog.KindServer,
			Topic: fmt.Sprintf("t%d", i), Outcome: reqlog.OutcomeShed, ShedReason: "server at capacity",
		})
	}
	rl.Record(reqlog.Record{Time: vc.Now(), Kind: reqlog.KindClient, Topic: "healthy",
		Outcome: reqlog.OutcomeOK, Latency: time.Millisecond})

	rec := NewRecorder(Options{Clock: vc, ReqLog: rl})
	b := rec.Snapshot(Trigger{Objective: "x", Severity: "critical"})
	if len(b.Requests) != maxRequests {
		t.Fatalf("bundle holds %d requests, want maxRequests=%d", len(b.Requests), maxRequests)
	}
	if b.Requests[0].Topic != fmt.Sprintf("t%d", sheds-1) ||
		b.Requests[maxRequests-1].Topic != fmt.Sprintf("t%d", sheds-maxRequests) {
		t.Fatalf("request tail not newest-first: %+v", b.Requests)
	}
	for _, r := range b.Requests {
		if r.Outcome != reqlog.OutcomeShed {
			t.Fatalf("healthy record leaked into the tail plane: %+v", r)
		}
	}
}

// TestWriteJSON serializes the retained bundles as one parseable document.
func TestWriteJSON(t *testing.T) {
	vc := simtime.NewVirtual(time.Unix(0, 0))
	rec, _ := fullRecorder(t, vc, Options{})
	rec.Snapshot(Trigger{Objective: "ctl-miss", Severity: "critical"})

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Bundles []json.RawMessage `json:"bundles"`
		Total   uint64            `json:"total"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("flight document does not parse: %v", err)
	}
	if len(doc.Bundles) != 1 || doc.Total != 1 {
		t.Fatalf("document %+v", doc)
	}
}
