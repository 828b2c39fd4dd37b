package telemetry

import (
	"strings"
	"testing"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/reqlog"
	"ndsm/internal/simtime"
	"ndsm/internal/sketch"
)

// fillRecorder records n requests on topic with the given latency.
func fillRecorder(rec *reqlog.Recorder, topic string, n int, latency time.Duration) {
	for i := 0; i < n; i++ {
		rec.Record(reqlog.Record{
			Time:    time.Unix(1_700_000_000, 0),
			Kind:    reqlog.KindClient,
			Topic:   topic,
			Outcome: reqlog.OutcomeOK,
			Latency: latency,
		})
	}
}

// TestDigestShippingAndClusterMerge walks a digest end to end: recorder →
// publisher report → wire encode/decode → aggregator ingest → cluster-merged
// quantiles and top-k over two nodes with disjoint traffic mixes.
func TestDigestShippingAndClusterMerge(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(1_700_000_000, 0))
	agg := NewAggregator(AggregatorOptions{Clock: clock, Registry: obs.NewRegistry()})

	publish := func(node string, rec *reqlog.Recorder) {
		t.Helper()
		var sent *Report
		p, err := NewPublisher(PublisherOptions{
			Node:     node,
			Registry: obs.NewRegistry(),
			ReqLog:   rec,
			Clock:    clock,
			Send:     func(r *Report) error { sent = r; return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
		if err := p.Publish(); err != nil {
			t.Fatal(err)
		}
		if len(sent.TopicDigests) == 0 || len(sent.TopKDigest) == 0 {
			t.Fatalf("%s: report shipped without digests: %+v", node, sent)
		}
		// Round-trip the wire encoding: digests must survive JSON base64.
		data, err := sent.Encode()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeReport(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Ingest(decoded); err != nil {
			t.Fatal(err)
		}
	}

	recA := reqlog.New(reqlog.Options{Registry: obs.NewRegistry()})
	fillRecorder(recA, "svc/hot", 600, 10*time.Millisecond)
	fillRecorder(recA, "svc/cold", 100, 50*time.Millisecond)
	publish("node-a", recA)

	recB := reqlog.New(reqlog.Options{Registry: obs.NewRegistry()})
	fillRecorder(recB, "svc/hot", 400, 30*time.Millisecond)
	publish("node-b", recB)

	// Merged hot-topic quantiles span both nodes: 600 samples at 10ms and
	// 400 at 30ms put the median at 10ms and p99 at 30ms.
	if p50, ok := agg.TopicQuantile("svc/hot", 0.50); !ok || p50 > 15 {
		t.Errorf("merged p50 = %v/%v, want ~10ms", p50, ok)
	}
	if p99, ok := agg.TopicQuantile("svc/hot", 0.99); !ok || p99 < 25 {
		t.Errorf("merged p99 = %v/%v, want ~30ms", p99, ok)
	}
	if _, ok := agg.TopicQuantile("svc/none", 0.5); ok {
		t.Error("unknown topic reported a quantile")
	}

	top := agg.MergedTopK(2)
	if len(top) != 2 || top[0].Key != "svc/hot" || top[0].Count != 1000 {
		t.Fatalf("merged topk = %+v, want svc/hot at 1000 first", top)
	}

	stats := agg.TopicStats()
	if len(stats) != 2 || stats[0].Topic != "svc/hot" || stats[0].Count != 1000 {
		t.Fatalf("topic stats = %+v, want svc/hot count 1000 first", stats)
	}
	if stats[1].Topic != "svc/cold" || stats[1].P99 < 45 {
		t.Errorf("cold stats = %+v, want p99 ~50ms", stats[1])
	}

	// The cluster view carries the merged attribution, and the dash renders
	// it as the Request attribution panel.
	view := agg.View()
	if len(view.Topics) != 2 || len(view.HotTopics) == 0 {
		t.Fatalf("view topics = %+v hot = %+v", view.Topics, view.HotTopics)
	}
	page := string(RenderDashAlerts(view, nil))
	if !strings.Contains(page, "Request attribution") || !strings.Contains(page, "svc/hot") {
		t.Error("dash missing attribution panel")
	}
}

// TestIngestRejectsCorruptDigests pins the trust boundary: a report whose
// sketch payload fails to decode is rejected whole, leaving state untouched.
func TestIngestRejectsCorruptDigests(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	agg := NewAggregator(AggregatorOptions{Clock: clock, Registry: obs.NewRegistry()})
	base := Report{Node: "n1", Seq: 1, Time: time.Unix(1, 0)}

	bad := base
	bad.TopicDigests = map[string][]byte{"t": {0xFF, 0x01}}
	if err := agg.Ingest(&bad); err == nil {
		t.Fatal("corrupt topic digest accepted")
	}
	bad = base
	bad.TopKDigest = []byte{0xFF}
	if err := agg.Ingest(&bad); err == nil {
		t.Fatal("corrupt topk digest accepted")
	}
	if got := agg.Nodes(); len(got) != 0 && agg.View().Nodes[0].Reports != 0 {
		t.Fatalf("rejected reports mutated state: %+v", got)
	}

	// A well-formed report with real digests still lands.
	var d sketch.Hist
	d.Add(5)
	tk := sketch.NewTopK(0)
	tk.Offer("t", 1)
	good := base
	good.TopicDigests = map[string][]byte{"t": d.AppendBinary(nil)}
	good.TopKDigest = tk.AppendBinary(nil)
	if err := agg.Ingest(&good); err != nil {
		t.Fatal(err)
	}
	if _, ok := agg.TopicQuantile("t", 0.5); !ok {
		t.Error("digest from good report not queryable")
	}
}
