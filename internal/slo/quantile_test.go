package slo

import (
	"testing"
	"time"

	"ndsm/internal/sketch"
	"ndsm/internal/telemetry"
)

// reportDigest ingests one report carrying a latency digest for topic whose
// samples all sit at latencyMs.
func (h *harness) reportDigest(node, topic string, n int, latencyMs float64) {
	h.t.Helper()
	var d sketch.Hist
	for i := 0; i < n; i++ {
		d.Add(latencyMs)
	}
	h.seq[node]++
	if err := h.agg.Ingest(&telemetry.Report{
		Node:         node,
		Seq:          h.seq[node],
		Time:         h.vc.Now(),
		TopicDigests: map[string][]byte{topic: d.AppendBinary(nil)},
	}); err != nil {
		h.t.Fatalf("ingest %s: %v", node, err)
	}
}

func quantileObjective() Objective {
	return Objective{
		Name:        "hot-p99",
		Kind:        KindQuantile,
		Topic:       "svc/hot",
		Quantile:    0.99,
		Max:         50, // ms
		Budget:      0.1,
		Window:      10 * time.Second,
		ShortWindow: 2 * time.Second,
		ClearAfter:  2,
	}
}

// TestQuantileObjective walks a cluster-merged p99 target: fast digests stay
// ok, a node publishing slow samples pushes the merged p99 over Max and burns
// to critical, and the alert carries the quantile kind with a single
// cluster-wide instance.
func TestQuantileObjective(t *testing.T) {
	h := newHarness(t, time.Hour)
	if err := h.eng.Add(quantileObjective()); err != nil {
		t.Fatal(err)
	}

	// No digests anywhere: evaluation is inconclusive — no transitions, no
	// severity.
	h.vc.Advance(time.Second)
	if tr := h.eng.Evaluate(); len(tr) != 0 {
		t.Fatalf("empty cluster produced transitions: %+v", tr)
	}

	// 5s of fast traffic: merged p99 = 10ms, well under the 50ms target.
	for i := 0; i < 5; i++ {
		h.vc.Advance(time.Second)
		h.reportDigest("n1", "svc/hot", 100, 10)
		if tr := h.eng.Evaluate(); len(tr) != 0 {
			t.Fatalf("fast traffic produced transitions: %+v", tr)
		}
	}
	if sev := h.eng.SeverityOf("hot-p99"); sev != OK {
		t.Fatalf("severity = %v, want ok", sev)
	}

	// A second node floods slow samples; its digest dominates the merge so
	// the cluster p99 jumps over 50ms even though n1 stays fast. Every
	// evaluation is a bad sample now; with budget 0.1 the burn crosses
	// critical once both windows agree.
	var worst Severity
	for i := 0; i < 6; i++ {
		h.vc.Advance(time.Second)
		h.reportDigest("n2", "svc/hot", 10_000, 200)
		for _, tr := range h.eng.Evaluate() {
			if tr.To > worst {
				worst = tr.To
			}
			if tr.Objective != "hot-p99" || tr.Node != "" {
				t.Fatalf("unexpected instance: %+v", tr)
			}
		}
	}
	if worst != Critical {
		t.Fatalf("slow flood reached %v, want critical", worst)
	}

	states := h.eng.States()
	found := false
	for _, st := range states {
		if st.Objective == "hot-p99" {
			found = true
			if st.Kind != "quantile" || st.Node != "" {
				t.Fatalf("state = %+v, want kind quantile on the cluster instance", st)
			}
		}
	}
	if !found {
		t.Fatal("no hot-p99 state")
	}
}

// TestQuantileObjectiveValidationAndConfig pins the declarative surface: the
// JSON form parses into KindQuantile, and bad shapes are rejected.
func TestQuantileObjectiveValidationAndConfig(t *testing.T) {
	objs, err := ParseObjectives([]byte(`[
		{"name":"p99","kind":"quantile","topic":"svc/hot","quantile":0.99,"max":50,"window":"30s"}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].Kind != KindQuantile || objs[0].Topic != "svc/hot" || objs[0].Max != 50 {
		t.Fatalf("parsed = %+v", objs)
	}

	h := newHarness(t, time.Hour)
	bad := []Objective{
		{Name: "no-topic", Kind: KindQuantile, Max: 50},
		{Name: "no-max", Kind: KindQuantile, Topic: "t"},
		{Name: "bad-q", Kind: KindQuantile, Topic: "t", Max: 50, Quantile: 1.5},
	}
	for _, o := range bad {
		if err := h.eng.Add(o); err == nil {
			t.Errorf("%s: accepted", o.Name)
		}
	}
	// Default quantile fills to p99.
	if err := h.eng.Add(Objective{Name: "defq", Kind: KindQuantile, Topic: "t", Max: 50}); err != nil {
		t.Fatal(err)
	}
	for _, o := range h.eng.Objectives() {
		if o.Name == "defq" && o.Quantile != 0.99 {
			t.Errorf("default quantile = %v, want 0.99", o.Quantile)
		}
	}
}
