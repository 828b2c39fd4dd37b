package slo

import (
	"testing"
	"time"

	"ndsm/internal/endpoint"
	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/telemetry"
)

// harness is one aggregator + engine pair on a shared virtual clock, with a
// per-node report sequencer.
type harness struct {
	t   *testing.T
	vc  *simtime.Virtual
	agg *telemetry.Aggregator
	eng *Engine
	seq map[string]uint64
}

func newHarness(t *testing.T, staleAfter time.Duration) *harness {
	t.Helper()
	vc := simtime.NewVirtual(time.Unix(0, 0))
	agg := telemetry.NewAggregator(telemetry.AggregatorOptions{
		Clock:      vc,
		StaleAfter: staleAfter,
		Registry:   obs.NewRegistry(),
	})
	eng, err := New(Options{Aggregator: agg, Clock: vc, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &harness{t: t, vc: vc, agg: agg, eng: eng, seq: make(map[string]uint64)}
}

// report ingests one report for node with counter deltas, stamped now.
func (h *harness) report(node string, counters map[string]int64, gauges map[string]float64) {
	h.t.Helper()
	h.seq[node]++
	if err := h.agg.Ingest(&telemetry.Report{
		Node:     node,
		Seq:      h.seq[node],
		Time:     h.vc.Now(),
		Counters: counters,
		Gauges:   gauges,
	}); err != nil {
		h.t.Fatalf("ingest %s: %v", node, err)
	}
}

func missObjective() Objective {
	return Objective{
		Name:        "ctl-miss",
		Kind:        KindRatio,
		Node:        "n1",
		BadSeries:   "ctl.miss",
		TotalSeries: "ctl.total",
		Budget:      0.1,
		Window:      10 * time.Second,
		ShortWindow: 2 * time.Second,
		WarnBurn:    1,
		CritBurn:    4,
		ClearAfter:  2,
	}
}

// TestRatioBurnRateWindows walks a deadline-miss ratio objective across its
// window boundaries: healthy traffic stays ok, a sustained 100% miss burst
// trips critical once both windows see it, and once the burst ages out of
// the long window the alert steps all the way back down.
func TestRatioBurnRateWindows(t *testing.T) {
	h := newHarness(t, time.Hour)
	if err := h.eng.Add(missObjective()); err != nil {
		t.Fatal(err)
	}

	// 5s of healthy traffic: burn 0, severity ok, no transitions.
	for i := 0; i < 5; i++ {
		h.vc.Advance(time.Second)
		h.report("n1", map[string]int64{"ctl.total": 10}, nil)
		if tr := h.eng.Evaluate(); len(tr) != 0 {
			t.Fatalf("healthy traffic produced transitions: %+v", tr)
		}
	}
	if sev := h.eng.SeverityOf("ctl-miss"); sev != OK {
		t.Fatalf("severity = %v, want ok", sev)
	}

	// 100% misses. One bad second pushes the long-window burn to
	// (10/60)/0.1 = 1.67 — warning territory but short of critical's 4.
	h.vc.Advance(time.Second)
	h.report("n1", map[string]int64{"ctl.total": 10, "ctl.miss": 10}, nil)
	tr := h.eng.Evaluate()
	if len(tr) != 1 || tr[0].To != Warning {
		t.Fatalf("after 1 bad second: transitions %+v, want one to warning", tr)
	}

	// More bad seconds. The long burn crawls up — (30/80)/0.1 = 3.75 after
	// the 3rd, (40/90)/0.1 = 4.44 after the 4th — so critical lands exactly
	// when the long window crosses 4, the short window having been all-bad
	// for a while: a boundary crossing, not a spike reaction.
	for i := 0; i < 2; i++ {
		h.vc.Advance(time.Second)
		h.report("n1", map[string]int64{"ctl.total": 10, "ctl.miss": 10}, nil)
		if tr := h.eng.Evaluate(); len(tr) != 0 {
			t.Fatalf("bad second %d transitioned early: %+v", i+2, tr)
		}
	}
	h.vc.Advance(time.Second)
	h.report("n1", map[string]int64{"ctl.total": 10, "ctl.miss": 10}, nil)
	tr = h.eng.Evaluate()
	if len(tr) != 1 || tr[0].To != Critical || tr[0].From != Warning {
		t.Fatalf("after 3 bad seconds: transitions %+v, want warning→critical", tr)
	}
	if tr[0].BurnShort < 4 || tr[0].BurnLong < 4 {
		t.Fatalf("critical transition carries burns %.2f/%.2f, want >= 4", tr[0].BurnLong, tr[0].BurnShort)
	}

	// Healthy again. The short window clears within 2s but the long window
	// still holds the burst, so the level must ratchet down one step per
	// ClearAfter evaluations — not snap.
	var downs []Transition
	for i := 0; i < 12; i++ {
		h.vc.Advance(time.Second)
		h.report("n1", map[string]int64{"ctl.total": 10}, nil)
		downs = append(downs, h.eng.Evaluate()...)
	}
	if len(downs) != 2 || downs[0].To != Warning || downs[1].To != OK {
		t.Fatalf("recovery transitions %+v, want critical→warning→ok", downs)
	}
	if sev := h.eng.SeverityOf("ctl-miss"); sev != OK {
		t.Fatalf("post-recovery severity = %v, want ok", sev)
	}
}

// TestHysteresisNoFlapping oscillates the miss rate right across the
// critical threshold every other second. The state machine must latch
// critical and emit no further transitions while the oscillation lasts:
// upgrades reset the calm counter before it reaches ClearAfter.
func TestHysteresisNoFlapping(t *testing.T) {
	h := newHarness(t, time.Hour)
	o := missObjective()
	o.ShortWindow = time.Second // judge only the newest report
	if err := h.eng.Add(o); err != nil {
		t.Fatal(err)
	}

	// Drive straight to critical with an all-bad burst.
	for i := 0; i < 4; i++ {
		h.vc.Advance(time.Second)
		h.report("n1", map[string]int64{"ctl.total": 10, "ctl.miss": 10}, nil)
		h.eng.Evaluate()
	}
	if sev := h.eng.SeverityOf("ctl-miss"); sev != Critical {
		t.Fatalf("severity = %v, want critical", sev)
	}

	// Oscillate: all-bad one second, all-good the next, 20 times. The calm
	// counter (ClearAfter 2) must keep resetting — zero transitions.
	for i := 0; i < 20; i++ {
		h.vc.Advance(time.Second)
		miss := int64(0)
		if i%2 == 0 {
			miss = 10
		}
		h.report("n1", map[string]int64{"ctl.total": 10, "ctl.miss": miss}, nil)
		if tr := h.eng.Evaluate(); len(tr) != 0 {
			t.Fatalf("oscillation tick %d flapped: %+v", i, tr)
		}
	}
	if sev := h.eng.SeverityOf("ctl-miss"); sev != Critical {
		t.Fatalf("severity after oscillation = %v, want critical held", sev)
	}
}

// TestReplayedTelemetryNeverAdvancesWindows replays an already-ingested
// sequence number with inflated counters: the aggregator must reject it and
// the engine's window values must not move — replayed telemetry cannot
// forge a burn.
func TestReplayedTelemetryNeverAdvancesWindows(t *testing.T) {
	h := newHarness(t, time.Hour)
	if err := h.eng.Add(missObjective()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		h.vc.Advance(time.Second)
		h.report("n1", map[string]int64{"ctl.total": 10}, nil)
	}
	h.eng.Evaluate()
	before := h.eng.States()[0]

	// Replay seq 3 (and a stale seq 1) carrying a fabricated all-miss
	// burst. Both must bounce off the aggregator's monotonicity check.
	for _, seq := range []uint64{3, 1} {
		err := h.agg.Ingest(&telemetry.Report{
			Node:     "n1",
			Seq:      seq,
			Time:     h.vc.Now().Add(time.Hour),
			Counters: map[string]int64{"ctl.total": 1000, "ctl.miss": 1000},
		})
		if err == nil {
			t.Fatalf("replayed seq %d was accepted", seq)
		}
	}
	if tr := h.eng.Evaluate(); len(tr) != 0 {
		t.Fatalf("replay caused transitions: %+v", tr)
	}
	after := h.eng.States()[0]
	if after.BurnLong != before.BurnLong || after.BurnShort != before.BurnShort || after.BadFraction != before.BadFraction {
		t.Fatalf("replay moved windows: before %+v after %+v", before, after)
	}
	if after.Severity != OK {
		t.Fatalf("severity after replay = %v, want ok", after.Severity)
	}
}

// TestFreshnessObjective silences a node and expects the per-node freshness
// alert to go critical within a bounded number of evaluations, then recover
// after reports resume.
func TestFreshnessObjective(t *testing.T) {
	h := newHarness(t, 3*time.Second)
	err := h.eng.Add(Objective{
		Name:        "fresh",
		Kind:        KindFreshness,
		Budget:      0.05,
		Window:      10 * time.Second,
		ShortWindow: 2 * time.Second,
		CritBurn:    10, // stale half the window
		ClearAfter:  2,
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		h.vc.Advance(time.Second)
		h.report("n1", map[string]int64{"ticks": 1}, nil)
		if tr := h.eng.Evaluate(); len(tr) != 0 {
			t.Fatalf("fresh node produced transitions: %+v", tr)
		}
	}

	// Silence the node. Staleness begins 3s later; critical requires half
	// of both windows stale — bounded detection within the long window.
	critAt := -1
	for i := 0; i < 15; i++ {
		h.vc.Advance(time.Second)
		for _, tr := range h.eng.Evaluate() {
			if tr.To == Critical {
				critAt = i
			}
		}
		if critAt >= 0 {
			break
		}
	}
	if critAt < 0 {
		t.Fatal("freshness alert never reached critical")
	}
	if critAt > 12 {
		t.Fatalf("critical after %d silent seconds, want bounded by staleAfter+window/2", critAt)
	}

	// Resume publishing: the alert must fully recover.
	recovered := false
	for i := 0; i < 30 && !recovered; i++ {
		h.vc.Advance(time.Second)
		h.report("n1", map[string]int64{"ticks": 1}, nil)
		h.eng.Evaluate()
		recovered = h.eng.SeverityOf("fresh") == OK
	}
	if !recovered {
		t.Fatal("freshness alert never recovered after reports resumed")
	}
}

// TestThresholdObjective drives a published p99 gauge over its limit and
// expects the latency objective to page, carrying the offending fraction.
func TestThresholdObjective(t *testing.T) {
	h := newHarness(t, time.Hour)
	err := h.eng.Add(Objective{
		Name:        "p99-latency",
		Kind:        KindThreshold,
		Node:        "n1",
		Series:      "rpc.latency.p99",
		Max:         50,
		Budget:      0.25, // a quarter of samples may exceed
		Window:      8 * time.Second,
		ShortWindow: 2 * time.Second,
		WarnBurn:    1,
		CritBurn:    3,
		ClearAfter:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h.vc.Advance(time.Second)
		h.report("n1", nil, map[string]float64{"rpc.latency.p99": 12})
		h.eng.Evaluate()
	}
	if sev := h.eng.SeverityOf("p99-latency"); sev != OK {
		t.Fatalf("fast p99 severity = %v, want ok", sev)
	}
	critical := false
	for i := 0; i < 8 && !critical; i++ {
		h.vc.Advance(time.Second)
		h.report("n1", nil, map[string]float64{"rpc.latency.p99": 180})
		for _, tr := range h.eng.Evaluate() {
			critical = critical || tr.To == Critical
		}
	}
	if !critical {
		t.Fatal("slow p99 never reached critical")
	}
}

// TestAlertsFeedAndSummary checks the feed delivers transitions and the
// severity digest matches the live states.
func TestAlertsFeedAndSummary(t *testing.T) {
	h := newHarness(t, time.Hour)
	if err := h.eng.Add(missObjective()); err != nil {
		t.Fatal(err)
	}
	var hooked []Transition
	h.eng.Alerts().Notify(func(tr Transition) { hooked = append(hooked, tr) })

	for i := 0; i < 4; i++ {
		h.vc.Advance(time.Second)
		h.report("n1", map[string]int64{"ctl.total": 10, "ctl.miss": 10}, nil)
		h.eng.Evaluate()
	}
	if len(hooked) == 0 {
		t.Fatal("Notify callback saw no transitions")
	}
	if tr := hooked[0]; tr.Objective != "ctl-miss" {
		t.Fatalf("feed delivered %+v", tr)
	}
	sum := h.eng.Summary()
	if sum.Critical != 1 || sum.OK != 0 {
		t.Fatalf("summary %+v, want 1 critical", sum)
	}
	states := h.eng.States()
	if len(states) != 1 || states[0].Severity != Critical {
		t.Fatalf("states %+v", states)
	}
}

// TestEvaluateNoObjectivesZeroAlloc is the satellite guard: an engine with
// nothing configured must evaluate for free — the alerting plane costs
// zero when disabled.
func TestEvaluateNoObjectivesZeroAlloc(t *testing.T) {
	h := newHarness(t, time.Hour)
	if allocs := testing.AllocsPerRun(1000, func() { h.eng.Evaluate() }); allocs != 0 {
		t.Fatalf("Evaluate with no objectives allocates %.1f/op, want 0", allocs)
	}
}

// evaluateFixture is a realistic alerting plane: three reporting nodes with a
// minute of counter history each, a ratio objective per node and a fleet-wide
// freshness objective. It is the per-tick cost a node pays for having SLOs
// configured.
func evaluateFixture(tb testing.TB) *Engine {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	agg := telemetry.NewAggregator(telemetry.AggregatorOptions{
		Clock:      clock,
		StaleAfter: 10 * time.Second,
		Registry:   obs.NewRegistry(),
	})
	nodes := []string{"n1", "n2", "n3"}
	for seq := 1; seq <= 60; seq++ {
		clock.Advance(time.Second)
		for _, n := range nodes {
			if err := agg.Ingest(&telemetry.Report{
				Node:     n,
				Seq:      uint64(seq),
				Time:     clock.Now(),
				Counters: map[string]int64{"rpc.total": int64(20 * seq), "rpc.err": int64(seq / 10)},
			}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	eng, err := New(Options{Aggregator: agg, Clock: clock, Registry: obs.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	for _, n := range nodes {
		if err := eng.Add(Objective{
			Name:        "rpc-errors-" + n,
			Kind:        KindRatio,
			Node:        n,
			BadSeries:   "rpc.err",
			TotalSeries: "rpc.total",
			Window:      30 * time.Second,
			ShortWindow: 5 * time.Second,
			Budget:      0.1,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := eng.Add(Objective{
		Name:        "telemetry-freshness",
		Kind:        KindFreshness,
		Window:      30 * time.Second,
		ShortWindow: 5 * time.Second,
		Budget:      0.25,
	}); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// One pass over three ratio objectives and a freshness objective allocates
// sixteen objects: the node list, a copy of two series per ratio objective,
// an instance key per objective and node (three ratio, three freshness), and
// the freshness instances' three point windows.
func TestEvaluateAllocs(t *testing.T) {
	eng := evaluateFixture(t)
	eng.Evaluate()
	const want = 16
	if allocs := testing.AllocsPerRun(500, func() { eng.Evaluate() }); allocs > want {
		t.Fatalf("Evaluate allocates %.2f objects, want at most %d", allocs, want)
	}
}

func BenchmarkEvaluate(b *testing.B) {
	eng := evaluateFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Evaluate()
	}
}

// TestParseObjectives round-trips the declarative config form.
func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives([]byte(`[
		{"name":"avail","kind":"ratio","badSeries":"err","totalSeries":"req","budget":0.001,"window":"5m"},
		{"name":"lat","kind":"threshold","series":"rpc.p99","max":50,"window":"1m","shortWindow":"10s"},
		{"name":"fresh","kind":"freshness"}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 || objs[0].Kind != KindRatio || objs[1].Kind != KindThreshold || objs[2].Kind != KindFreshness {
		t.Fatalf("parsed %+v", objs)
	}
	if objs[0].Window != 5*time.Minute || objs[1].ShortWindow != 10*time.Second {
		t.Fatalf("durations wrong: %+v", objs)
	}
	if _, err := ParseObjectives([]byte(`[{"name":"x","kind":"nope"}]`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ParseObjectives([]byte(`[{"name":"x","kind":"ratio","badSeries":"a","totalSeries":"b","window":"soon"}]`)); err == nil {
		t.Fatal("bad duration accepted")
	}
}

// TestAddValidation rejects malformed objectives and duplicates.
func TestAddValidation(t *testing.T) {
	h := newHarness(t, time.Hour)
	if err := h.eng.Add(Objective{Kind: KindRatio}); err == nil {
		t.Fatal("nameless objective accepted")
	}
	if err := h.eng.Add(Objective{Name: "r", Kind: KindRatio}); err == nil {
		t.Fatal("ratio without series accepted")
	}
	if err := h.eng.Add(Objective{Name: "t", Kind: KindThreshold}); err == nil {
		t.Fatal("threshold without series accepted")
	}
	if err := h.eng.Add(Objective{Name: "b", Kind: KindFreshness, Budget: 7}); err == nil {
		t.Fatal("budget > 1 accepted")
	}
	if err := h.eng.Add(Objective{Name: "f", Kind: KindFreshness}); err != nil {
		t.Fatal(err)
	}
	if err := h.eng.Add(Objective{Name: "f", Kind: KindFreshness}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

// fakeLaneServer records quota mutations for adapter tests.
type fakeLaneServer struct {
	quota map[endpoint.Lane]int
	sets  int
}

func (f *fakeLaneServer) SetLaneQuota(lane endpoint.Lane, q int) bool {
	if f.quota == nil {
		f.quota = make(map[endpoint.Lane]int)
	}
	f.quota[lane] = q
	f.sets++
	return true
}

// TestQuotaAdapterBoostAndDecay drives the end-to-end reactive loop: the
// deadline-miss objective burns → the control lane's quota jumps to
// QuotaBoost; recovery → the quota decays back to none one step per calm
// evaluation.
func TestQuotaAdapterBoostAndDecay(t *testing.T) {
	h := newHarness(t, time.Hour)
	if err := h.eng.Add(missObjective()); err != nil {
		t.Fatal(err)
	}
	srv := &fakeLaneServer{}
	ad, err := NewQuotaAdapter(h.eng, QuotaAdapterOptions{
		Objective: "ctl-miss",
		Servers:   []LaneServer{srv},
		Registry:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := srv.quota[endpoint.LaneControl]; !ok || q != 0 {
		t.Fatalf("resting quota not applied: %+v", srv.quota)
	}

	// Burn: sustained misses push the objective to warning then critical;
	// the adapter must boost on the first burning evaluation.
	for i := 0; i < 3; i++ {
		h.vc.Advance(time.Second)
		h.report("n1", map[string]int64{"ctl.total": 10, "ctl.miss": 10}, nil)
		h.eng.Evaluate()
	}
	if srv.quota[endpoint.LaneControl] != QuotaBoost || ad.Quota() != QuotaBoost {
		t.Fatalf("quota while burning = %d (server %d), want boost %d", ad.Quota(), srv.quota[endpoint.LaneControl], QuotaBoost)
	}

	// Recover: after the alert steps down, each calm evaluation walks the
	// quota back by one until none is reserved.
	seen := map[int]bool{}
	for i := 0; i < 40; i++ {
		h.vc.Advance(time.Second)
		h.report("n1", map[string]int64{"ctl.total": 10}, nil)
		h.eng.Evaluate()
		seen[ad.Quota()] = true
	}
	if ad.Quota() != 0 || srv.quota[endpoint.LaneControl] != 0 {
		t.Fatalf("quota after recovery = %d (server %d), want 0", ad.Quota(), srv.quota[endpoint.LaneControl])
	}
	if !seen[1] {
		t.Fatalf("decay skipped quota 1: saw %+v", seen)
	}
}

// TestQuotaAdapterValidation rejects an adapter wired to nothing.
func TestQuotaAdapterValidation(t *testing.T) {
	h := newHarness(t, time.Hour)
	if _, err := NewQuotaAdapter(nil, QuotaAdapterOptions{}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewQuotaAdapter(h.eng, QuotaAdapterOptions{Objective: "x"}); err == nil {
		t.Fatal("no servers accepted")
	}
}
