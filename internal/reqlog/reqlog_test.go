package reqlog

import (
	"fmt"
	"testing"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/simtime"
)

func testOpts() Options {
	return Options{
		Capacity:    64, // 48 tail + 16 healthy
		SampleEvery: 4,
		Registry:    obs.NewRegistry(),
	}
}

func okRecord(at time.Time, topic string) Record {
	return Record{
		Time: at, Kind: KindServer, Topic: topic,
		Lane: "default", Outcome: OutcomeOK, Latency: 2 * time.Millisecond,
	}
}

// TestTailRetentionSurvivesHealthyFlood is the core retention property: a
// burst of shed records must still be present after a flood of healthy
// traffic large enough to cycle the healthy ring many times over.
func TestTailRetentionSurvivesHealthyFlood(t *testing.T) {
	clk := simtime.NewVirtual(time.Unix(1_700_000_000, 0))
	r := New(testOpts())

	// The anomaly: a short shed burst.
	const sheds = 10
	for i := 0; i < sheds; i++ {
		r.Record(Record{
			Time: clk.Now(), Kind: KindServer, Topic: "orders/create",
			Lane: "control", Outcome: OutcomeShed,
			ShedReason: "server at capacity", Latency: 0,
		})
		clk.Advance(time.Millisecond)
	}
	// The flood: 10k healthy records afterwards.
	for i := 0; i < 10_000; i++ {
		r.Record(okRecord(clk.Now(), "metrics/poll"))
		clk.Advance(100 * time.Microsecond)
	}

	got := r.Snapshot(Filter{Outcome: OutcomeShed})
	if len(got) != sheds {
		t.Fatalf("shed records after flood = %d, want %d", len(got), sheds)
	}
	for _, rec := range got {
		if rec.ShedReason != "server at capacity" || rec.Topic != "orders/create" {
			t.Errorf("shed record corrupted: %+v", rec)
		}
	}
	// Healthy records are sampled, not dropped entirely.
	if healthy := r.Snapshot(Filter{Outcome: OutcomeOK}); len(healthy) == 0 {
		t.Error("healthy ring empty despite flood")
	}
	tail, healthy := r.Len()
	if tail > 48 || healthy > 16 {
		t.Errorf("rings exceeded capacity: tail=%d healthy=%d", tail, healthy)
	}
}

// TestTailClassification walks the classifier's boundaries.
func TestTailClassification(t *testing.T) {
	slow := slowThreshold
	cases := []struct {
		name string
		rec  Record
		want bool
	}{
		{"healthy fast", Record{Outcome: OutcomeOK, Latency: time.Millisecond}, false},
		{"error", Record{Outcome: OutcomeError, Latency: time.Millisecond}, true},
		{"shed", Record{Outcome: OutcomeShed}, true},
		{"timeout", Record{Outcome: OutcomeTimeout}, true},
		{"at slow threshold", Record{Outcome: OutcomeOK, Latency: slow}, true},
		{"just under slow", Record{Outcome: OutcomeOK, Latency: slow - 1}, false},
		{"deadline blown", Record{Outcome: OutcomeOK, Latency: 10 * time.Millisecond,
			HasDeadline: true, DeadlineSlack: -time.Millisecond}, true},
		{"deadline tight", Record{Outcome: OutcomeOK, Latency: 40 * time.Millisecond,
			HasDeadline: true, DeadlineSlack: 5 * time.Millisecond}, true}, // 5ms of a 45ms budget left
		{"deadline roomy", Record{Outcome: OutcomeOK, Latency: 10 * time.Millisecond,
			HasDeadline: true, DeadlineSlack: 40 * time.Millisecond}, false},
	}
	for _, tc := range cases {
		if got := tc.rec.tailWorthy(); got != tc.want {
			t.Errorf("%s: tailWorthy = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRingWrap pins overwrite-oldest behaviour exactly at the boundary.
func TestRingWrap(t *testing.T) {
	r := ring{buf: make([]slot, 4), names: newNames()}
	base := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		r.push(Record{Time: base.Add(time.Duration(i) * time.Second), Topic: fmt.Sprintf("t%d", i)})
	}
	got := r.appendNewestFirst(nil)
	if len(got) != 4 {
		t.Fatalf("wrapped ring holds %d, want 4", len(got))
	}
	for i, want := range []string{"t9", "t8", "t7", "t6"} {
		if got[i].Topic != want {
			t.Errorf("slot %d = %s, want %s", i, got[i].Topic, want)
		}
	}
	// Exactly-full (no wrap yet) keeps everything.
	r2 := ring{buf: make([]slot, 4), names: newNames()}
	for i := 0; i < 4; i++ {
		r2.push(Record{Topic: fmt.Sprintf("x%d", i)})
	}
	if got := r2.appendNewestFirst(nil); len(got) != 4 || got[0].Topic != "x3" || got[3].Topic != "x0" {
		t.Errorf("exact-fill ring = %+v", got)
	}
}

func TestSnapshotFilters(t *testing.T) {
	clk := simtime.NewVirtual(time.Unix(1_700_000_000, 0))
	r := New(Options{Capacity: 64, SampleEvery: 1, Registry: obs.NewRegistry()})
	mk := func(topic, lane, outcome, kind string) {
		r.Record(Record{Time: clk.Now(), Kind: kind, Topic: topic, Lane: lane,
			Outcome: outcome, Latency: time.Millisecond})
		clk.Advance(time.Millisecond)
	}
	mk("a", "default", OutcomeOK, KindClient)
	mk("a", "bulk", OutcomeError, KindServer)
	mk("b", "default", OutcomeOK, KindServer)
	mk("b", "control", OutcomeShed, KindServer)

	if got := r.Snapshot(Filter{Topic: "a"}); len(got) != 2 {
		t.Errorf("topic filter: %d records, want 2", len(got))
	}
	if got := r.Snapshot(Filter{Lane: "control"}); len(got) != 1 || got[0].Outcome != OutcomeShed {
		t.Errorf("lane filter: %+v", got)
	}
	if got := r.Snapshot(Filter{Outcome: OutcomeOK, Kind: KindServer}); len(got) != 1 || got[0].Topic != "b" {
		t.Errorf("outcome+kind filter: %+v", got)
	}
	all := r.Snapshot(Filter{})
	if len(all) != 4 {
		t.Fatalf("unfiltered: %d records, want 4", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Time.After(all[i-1].Time) {
			t.Errorf("snapshot not newest-first at %d", i)
		}
	}
	if got := r.Snapshot(Filter{Limit: 2}); len(got) != 2 || got[0].Topic != "b" {
		t.Errorf("limit: %+v", got)
	}
}

func TestTopicOverflowFoldsIntoOther(t *testing.T) {
	r := New(Options{Capacity: 64, SampleEvery: 1, Registry: obs.NewRegistry()})
	base := time.Unix(1_700_000_000, 0)
	for i := 0; i < maxTopics+16; i++ {
		rec := okRecord(base.Add(time.Duration(i)*time.Second), fmt.Sprintf("topic-%d", i))
		rec.Latency = 5 * time.Millisecond
		r.Record(rec)
	}
	if n := len(r.topics); n != maxTopics+1 {
		t.Fatalf("topics = %d, want %d + overflow", n, maxTopics)
	}
	if q, ok := r.TopicQuantile(OverflowTopic, 0.5); !ok || q <= 0 {
		t.Errorf("overflow digest quantile = %v, %v", q, ok)
	}
	// Digest payloads decode and cover all slots.
	if d := r.TopicDigests(); len(d) != maxTopics+1 {
		t.Errorf("TopicDigests len = %d", len(d))
	}
}

func TestQuantileAndTopKAccessors(t *testing.T) {
	r := New(Options{Capacity: 64, SampleEvery: 1, Registry: obs.NewRegistry()})
	base := time.Unix(1_700_000_000, 0)
	for i := 0; i < 1000; i++ {
		rec := okRecord(base, "hot/topic")
		rec.Latency = time.Duration(i%100+1) * time.Millisecond
		r.Record(rec)
	}
	for i := 0; i < 50; i++ {
		r.Record(okRecord(base, "cold/topic"))
	}
	if q, ok := r.TopicQuantile("hot/topic", 0.5); !ok || q < 30 || q > 70 {
		t.Errorf("median = %v (ok=%v), want ~50ms", q, ok)
	}
	if _, ok := r.TopicQuantile("absent", 0.5); ok {
		t.Error("absent topic reported a quantile")
	}
	top := r.TopK(1)
	if len(top) != 1 || top[0].Key != "hot/topic" || top[0].Count != 1000 {
		t.Errorf("TopK(1) = %+v", top)
	}
	if r.TopKBinary() == nil {
		t.Error("TopKBinary nil after traffic")
	}
}
