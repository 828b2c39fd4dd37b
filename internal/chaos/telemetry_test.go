package chaos

import (
	"sort"
	"strings"
	"testing"
	"time"

	"ndsm/internal/simtime"
)

// partitionSchedule severs every link of one node for a fixed tick window —
// the telemetry plane's canonical failure: the node keeps running but its
// reports stop arriving at the aggregator.
func partitionSchedule(target string, fromTick, ticks int) Schedule {
	return Schedule{{
		At:       time.Duration(fromTick) * TickEvery,
		Fault:    FaultPartition,
		Target:   target,
		Duration: time.Duration(ticks) * TickEvery,
	}}
}

// TestTelemetryFreshnessAroundPartition drives an SLO world (the world that
// builds the telemetry plane) directly and watches one supplier's freshness
// verdict flip stale while partitioned from the aggregator and fresh again
// after the heal.
func TestTelemetryFreshnessAroundPartition(t *testing.T) {
	vclock := simtime.NewVirtual(time.Unix(0, 0))
	w, err := NewWorld(WorldConfig{Seed: 1, NoLiveness: true, SLO: true}, vclock, nil)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close() //nolint:errcheck

	engine := NewEngine(vclock)
	w.RegisterInjectors(engine)
	const total = 30
	// Partition s2: it is not the initially bound supplier, so the workload
	// keeps flowing and the run isolates the telemetry plane's reaction.
	sched := partitionSchedule("s2", 5, 12)
	// The engine applies an action during the first tick whose clock has
	// passed its offset, so map schedule time to tick indices the same way
	// the invariants do.
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

	if w.agg == nil {
		t.Fatal("telemetry world has no aggregator")
	}
	fresh := make([]map[string]bool, 0, total)
	for _, r := range w.Ticks() {
		fresh = append(fresh, r.Fresh)
	}
	if len(fresh) != total {
		t.Fatalf("freshness trace has %d entries, want %d", len(fresh), total)
	}

	// Every supplier publishes on tick 0, so the whole fleet starts fresh.
	for _, id := range w.SupplierIDs() {
		if !fresh[0][id] {
			t.Errorf("%s not fresh at tick 0", id)
		}
	}

	// The partitioned supplier must be marked stale within the bound
	// (staleness is 2.5 ticks; 5 leaves margin), and stay stale until heal.
	staleAt := -1
	for i := cutAt; i < healTick; i++ {
		if !fresh[i]["s2"] {
			staleAt = i
			break
		}
	}
	if staleAt < 0 {
		t.Fatalf("s2 never stale while partitioned; trace: %v", fresh[cutAt:healTick])
	}
	if staleAt > cutAt+5 {
		t.Errorf("s2 stale only at tick %d, budget was tick %d", staleAt, cutAt+5)
	}
	for i := staleAt; i < healTick; i++ {
		if fresh[i]["s2"] {
			t.Errorf("s2 flapped back to fresh at tick %d while still partitioned", i)
		}
	}

	// After the heal the next successful publish must restore freshness.
	recovered := -1
	for i := healTick; i < total; i++ {
		if fresh[i]["s2"] {
			recovered = i
			break
		}
	}
	if recovered < 0 {
		t.Fatalf("s2 never fresh after heal at tick %d; trace: %v", healTick, fresh[healTick:])
	}
	if recovered > healTick+5 {
		t.Errorf("s2 fresh only at tick %d, budget was tick %d", recovered, healTick+5)
	}

	// The unpartitioned suppliers must stay fresh for the whole run.
	for i, m := range fresh {
		for _, id := range []string{"s0", "s1"} {
			if !m[id] {
				t.Errorf("%s stale at tick %d with no fault on it", id, i)
			}
		}
	}

	// The aggregator's merged view carries one series set per supplier, and
	// one for the consumer's own self-ingested workload report.
	view := w.agg.View()
	want := append(w.SupplierIDs(), ConsumerID)
	sort.Strings(want)
	var got []string
	for _, nv := range view.Nodes {
		got = append(got, nv.Node)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("cluster view has nodes %v, want %v", got, want)
	}
}

// TestTelemetryScenarioInvariantClean runs the same partition window through
// RunScenario with the SLO plane on: the telemetry-freshness invariant must
// judge the run clean, alongside every pre-existing invariant.
func TestTelemetryScenarioInvariantClean(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{
		WorldConfig: WorldConfig{Seed: 2, SLO: true},
		Ticks:       30,
		Schedule:    partitionSchedule("s1", 6, 10),
	})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestTelemetryInvariantSkipsPlainWorlds guards the soak path: worlds built
// without telemetry carry no aggregator, and the invariant must pass through
// without verdicts rather than flag every partition as undetected.
func TestTelemetryInvariantSkipsPlainWorlds(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{
		WorldConfig: WorldConfig{Seed: 3},
		Ticks:       20,
		Schedule:    partitionSchedule("s1", 4, 8),
	})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
}
