package chaos

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ndsm/internal/flightrec"
	"ndsm/internal/simtime"
	"ndsm/internal/slo"
)

// TestAlertLatencyAroundPartition drives an SLO world through one supplier
// partition and checks the alerting plane end to end: the freshness
// objective for the silenced supplier climbs to critical within the bound,
// the transition cuts a flight-recorder bundle, and after the heal the alert
// steps back down to ok through hysteresis.
func TestAlertLatencyAroundPartition(t *testing.T) {
	vclock := simtime.NewVirtual(time.Unix(0, 0))
	w, err := NewWorld(WorldConfig{Seed: 1, NoLiveness: true, SLO: true}, vclock, nil)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close() //nolint:errcheck

	engine := NewEngine(vclock)
	w.RegisterInjectors(engine)
	const total = 60
	sched := partitionSchedule("s2", 5, 25)
	cutAt := tickOf(sched[0].At)
	healTick := tickOf(sched[0].At + sched[0].Duration)
	engine.Load(sched)

	for i := 0; i < total; i++ {
		vclock.Advance(TickEvery)
		if err := engine.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		w.Tick(i)
	}
	if err := engine.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	trace := w.Ticks()
	if len(trace) != total {
		t.Fatalf("alert trace has %d entries, want %d", len(trace), total)
	}
	key := sloKey(FreshnessObjective, "s2")

	// Before the cut: ok. Within the alert bound of the cut: critical.
	for i := 0; i < cutAt; i++ {
		if trace[i].Alerts[key] != slo.OK {
			t.Fatalf("s2 freshness %v at tick %d, before the partition", trace[i].Alerts[key], i)
		}
	}
	const bound = 10
	critAt := -1
	for i := cutAt; i <= cutAt+bound; i++ {
		if trace[i].Alerts[key] == slo.Critical {
			critAt = i
			break
		}
	}
	if critAt < 0 {
		t.Fatalf("s2 freshness never critical within %d ticks of the cut; trace: %v",
			bound, severityTrace(trace, key, cutAt, cutAt+bound))
	}

	// Critical holds (no flapping) until the heal.
	for i := critAt; i < healTick; i++ {
		if trace[i].Alerts[key] != slo.Critical {
			t.Fatalf("s2 freshness dropped to %v at tick %d while still partitioned", trace[i].Alerts[key], i)
		}
	}

	// After the heal the alert decays back to ok — through warning, never
	// skipping straight down — within the window plus hysteresis.
	recoverBy := healTick + sloWindowTicks + 2*sloClearAfter + 4
	okAt := -1
	for i := healTick; i <= recoverBy && i < total; i++ {
		if trace[i].Alerts[key] == slo.OK {
			okAt = i
			break
		}
	}
	if okAt < 0 {
		t.Fatalf("s2 freshness never recovered to ok by tick %d; trace: %v",
			recoverBy, severityTrace(trace, key, healTick, recoverBy))
	}

	// The critical transition cut exactly the post-mortem bundle wiring
	// promises: trigger names the objective and node, windows carry burns.
	rec := w.FlightRecorder()
	if rec == nil || len(rec.Bundles()) == 0 {
		t.Fatal("critical transition cut no flight bundle")
	}
	b := rec.Bundles()[0]
	if b.Trigger.Objective != FreshnessObjective || b.Trigger.Node != "s2" {
		t.Fatalf("bundle trigger %+v", b.Trigger)
	}
	if b.Trigger.Windows["burnLong"] < 2 {
		t.Fatalf("bundle burn %v, want >= crit burn 2", b.Trigger.Windows)
	}
	// The bundle caught the aggregator mid-incident: s2 stale, others fresh.
	staleSeen := false
	for _, nf := range b.Telemetry {
		if nf.Node == "s2" && !nf.Fresh {
			staleSeen = true
		}
	}
	if !staleSeen {
		t.Fatalf("bundle telemetry does not show s2 stale: %+v", b.Telemetry)
	}

	// The invariant agrees with the direct reading.
	events := engine.Events()
	if v := alertLatency(w, events); len(v) != 0 {
		t.Fatalf("alert-latency violations on a detected run: %v", v)
	}
}

// A flight bundle cut in the SLO world carries the consumer's own counters:
// its radio's netsim.* traffic in Obs, and in ObsDelta what it sent since the
// bundle before.
func TestFlightBundleCarriesConsumerCounters(t *testing.T) {
	vclock := simtime.NewVirtual(time.Unix(0, 0))
	w, err := NewWorld(WorldConfig{Seed: 1, NoLiveness: true, SLO: true}, vclock, nil)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close() //nolint:errcheck
	tick := 0
	cut := func() *flightrec.Bundle {
		for end := tick + 3; tick < end; tick++ {
			vclock.Advance(TickEvery)
			w.Tick(tick)
		}
		b := w.FlightRecorder().Snapshot(flightrec.Trigger{Objective: "test", Node: ConsumerID, Severity: "critical"})
		if b == nil {
			t.Fatal("flight recorder cut no bundle")
		}
		return b
	}
	first := cut()
	if first.Obs == nil || first.Obs.Counters["netsim.sent"] == 0 {
		t.Fatalf("first bundle holds no consumer netsim.sent: %+v", first.Obs)
	}
	second := cut()
	if second.ObsDelta == nil || second.ObsDelta.Counters["netsim.sent"] <= 0 {
		t.Fatalf("second bundle's delta holds no consumer netsim.sent: %+v", second.ObsDelta)
	}
}

// TestAlertLatencyScenarioCrash runs a supplier crash through RunScenario
// with SLO on: every invariant including alert-latency must judge the run
// clean (the crash is detected in time), and the scenario surfaces the alert
// transitions.
func TestAlertLatencyScenarioCrash(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{
		WorldConfig: WorldConfig{Seed: 4, SLO: true},
		Ticks:       60,
		Schedule: Schedule{{
			At:       8 * TickEvery,
			Fault:    FaultCrashSupplier,
			Target:   "s2",
			Duration: 30 * TickEvery,
		}},
	})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	sawCritical := false
	for _, tr := range res.Alerts {
		if tr.Objective == FreshnessObjective && tr.Node == "s2" && tr.To == slo.Critical {
			sawCritical = true
		}
	}
	if !sawCritical {
		t.Fatalf("crash produced no critical freshness transition; alerts: %+v", res.Alerts)
	}
}

// TestAlertLatencyFlightDump forces a violating SLO run (a schedule step
// naming an unknown fault, beside the partition that drives an alert) and
// checks the black box lands on disk next to the causal trace, as one
// parseable bundle document.
func TestAlertLatencyFlightDump(t *testing.T) {
	dir := t.TempDir()
	res, err := RunScenario(ScenarioConfig{
		WorldConfig: WorldConfig{Seed: 5, SLO: true},
		Ticks:       50,
		Schedule: append(partitionSchedule("s2", 5, 30),
			Step{At: 40 * TickEvery, Fault: FaultKind("no-such-fault"), Target: "x"}),
		TraceDir: dir,
	})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("the unknown fault was injected; the forced violation vanished")
	}
	if res.FlightFile == "" {
		t.Fatal("violating SLO run dumped no flight file")
	}
	if filepath.Base(res.FlightFile) != "chaos-flight-5.json" {
		t.Fatalf("flight file named %s", res.FlightFile)
	}
	raw, err := os.ReadFile(res.FlightFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Bundles []json.RawMessage `json:"bundles"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("flight dump does not parse: %v", err)
	}
	if len(doc.Bundles) == 0 {
		t.Fatal("flight dump holds no bundles despite a critical alert")
	}
	if res.TraceFile == "" {
		t.Fatal("violating traced run dumped no causal trace")
	}
}

// TestCalmWorldNoAlerts is the false-positive soak: 20 seeds of a fault-free
// SLO world (overload workload on, so ratio objectives see live traffic)
// must produce zero alert transitions — burn-rate alerting that pages on a
// calm cluster is worse than none.
func TestCalmWorldNoAlerts(t *testing.T) {
	seeds := 20
	ticks := 40
	if testing.Short() {
		seeds, ticks = 3, 25
	}
	report, err := Soak(ScenarioConfig{
		WorldConfig: WorldConfig{Seed: 501, SLO: true, Overload: true},
		Ticks:       ticks,
	}, seeds)
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	for _, res := range report.Results {
		for _, v := range res.Violations {
			t.Errorf("seed %d violation on a calm world: %s", res.Config.Seed, v)
		}
		for _, tr := range res.Alerts {
			t.Errorf("seed %d false-positive alert: %s/%s %s -> %s (burn %.2f)",
				res.Config.Seed, tr.Objective, tr.Node, tr.From, tr.To, tr.BurnLong)
		}
	}
}

// TestSLOScenarioSmoke is the CI smoke: one seeded SLO+overload scenario
// through a generated fault schedule, judged by the full invariant set
// including alert-latency.
func TestSLOScenarioSmoke(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{
		WorldConfig: WorldConfig{Seed: 13, SLO: true, Overload: true},
		Ticks:       40,
		Windows:     3,
		TraceDir:    os.Getenv("NDSM_CHAOS_TRACE_DIR"),
	})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
}

// severityTrace renders one alert key's severities over [from, to] for
// failure messages.
func severityTrace(trace []TickRecord, key string, from, to int) []slo.Severity {
	var out []slo.Severity
	for i := from; i <= to && i < len(trace); i++ {
		if i >= 0 {
			out = append(out, trace[i].Alerts[key])
		}
	}
	return out
}
