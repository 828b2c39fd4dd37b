package chaos

import (
	"fmt"
	"os"
	"testing"
	"time"

	"ndsm/internal/simtime"
)

// killSchedule is a hand-built schedule that crash-kills a supplier for a
// fixed window, with nothing else going on — the cleanest stage for watching
// the detector work.
func killSchedule(target string, fromTick, ticks int) Schedule {
	return Schedule{{
		At:       time.Duration(fromTick) * TickEvery,
		Fault:    FaultCrashSupplier,
		Target:   target,
		Duration: time.Duration(ticks) * TickEvery,
	}}
}

func TestLivenessWorldSuspectsKilledSupplier(t *testing.T) {
	cfg := ScenarioConfig{
		WorldConfig: WorldConfig{Seed: 1},
		Ticks:       30,
		// Kill the initially bound supplier (s0 has the best advertised
		// reliability, so the consumer starts on it) for 15 ticks.
		Schedule: killSchedule("s0", 5, 15),
	}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestLivenessDetectorCatchesKill drives the world directly (not through
// RunScenario) to inspect the detector traces tick by tick.
func TestLivenessDetectorCatchesKill(t *testing.T) {
	vclock := simtime.NewVirtual(time.Unix(0, 0))
	w, err := NewWorld(WorldConfig{Seed: 1}, vclock, nil)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close() //nolint:errcheck

	engine := NewEngine(vclock)
	w.RegisterInjectors(engine)
	const killAt, killTicks, total = 5, 15, 25
	engine.Load(killSchedule("s0", killAt, killTicks))

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

	if w.health == nil {
		t.Fatal("liveness world has no monitor")
	}
	ticks := w.Ticks()
	if len(ticks) != total {
		t.Fatalf("trace length %d, want %d", len(ticks), total)
	}
	sus := make([]map[string]bool, total)
	for i, r := range ticks {
		sus[i] = r.Suspected
	}

	// The detector must suspect s0 within the suspect-before-violate budget
	// of the kill, and hold the suspicion until the revive.
	detectedAt := -1
	for i := killAt; i < killAt+killTicks && i < total; i++ {
		if sus[i]["s0"] {
			detectedAt = i
			break
		}
	}
	if detectedAt < 0 {
		t.Fatalf("s0 never suspected while dead; trace: %v", sus[killAt:killAt+killTicks])
	}
	if detectedAt > killAt+8 {
		t.Errorf("s0 suspected only at tick %d, budget was tick %d", detectedAt, killAt+8)
	}

	// Once suspected, the binding must have moved off the corpse by the end
	// of the next tick and stayed off until the revive.
	for i := detectedAt + 1; i < killAt+killTicks && i < total; i++ {
		if ticks[i].Bound == "s0" {
			t.Errorf("tick %d still bound to suspected dead s0", i)
		}
	}

	// After the revive and fresh heartbeats, suspicion must clear — the
	// detector is allowed to be wrong but not forever.
	end := len(sus) - 1
	if sus[end]["s0"] {
		t.Errorf("s0 still suspected at final tick, %d ticks after revive", end-(killAt+killTicks))
	}
}

// TestLivenessReducesDeadAttempts is the E11 core claim at unit scale: under
// an identical seeded kill schedule, the detector-on world sends strictly
// fewer requests at dead suppliers than the detector-off baseline.
//
// The schedule kills the two best-reliability suppliers permanently
// (Duration 0 reverts only at Finish). Without a detector their hour-long
// leases keep them listed, QoS selection keeps preferring them over the live
// but lower-ranked s2, and single-peer exclusion makes the binding ping-pong
// between the two corpses for the rest of the run. With the detector on, both
// are suspected within a few ticks and the binding settles on s2.
func TestLivenessReducesDeadAttempts(t *testing.T) {
	const ticks = 40
	schedule := Schedule{
		{At: 5 * TickEvery, Fault: FaultCrashSupplier, Target: "s0"},
		{At: 15 * TickEvery, Fault: FaultCrashSupplier, Target: "s1"},
	}
	run := func(disable bool) *ScenarioResult {
		res, err := RunScenario(ScenarioConfig{
			WorldConfig: WorldConfig{Seed: 9, NoLiveness: disable},
			Ticks:       ticks,
			Schedule:    schedule,
		})
		if err != nil {
			t.Fatalf("scenario (disable=%v): %v", disable, err)
		}
		return res
	}
	on := run(false)
	off := run(true)
	t.Logf("dead attempts: liveness on=%d, off=%d; ok ticks on=%d off=%d",
		on.DeadAttempts, off.DeadAttempts, on.TicksOK, off.TicksOK)
	if on.DeadAttempts >= off.DeadAttempts {
		t.Errorf("liveness did not reduce dead-peer attempts: on=%d off=%d",
			on.DeadAttempts, off.DeadAttempts)
	}
	for _, v := range on.Violations {
		t.Errorf("liveness-on violation: %s", v)
	}
}

// TestLivenessSoak is the acceptance-gate soak: >=20 seeds of the standard
// scenario with liveness on, every invariant (including
// suspect-before-violate) clean, every violation reproducible by seed.
func TestLivenessSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed soak skipped in short mode")
	}
	report, err := Soak(ScenarioConfig{
		WorldConfig: WorldConfig{Seed: 101},
		Ticks:       60,
		Windows:     4,
		// With NDSM_CHAOS_TRACE_DIR set (CI exports it), every scenario runs
		// traced and any reproducing failure seed dumps its full causal
		// timeline there — uploaded as a workflow artifact on failure.
		TraceDir: os.Getenv("NDSM_CHAOS_TRACE_DIR"),
	}, 20)
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	clean := 0
	for _, res := range report.Results {
		if len(res.Violations) == 0 {
			clean++
		}
	}
	for _, v := range report.Violations() {
		t.Errorf("soak violation: %s", v)
	}
	t.Logf("liveness soak: %d/%d scenarios clean", clean, len(report.Results))
}

// TestWorldTracesAlign guards the per-tick bookkeeping: every trace the
// invariants consume must have exactly one entry per tick.
func TestWorldTracesAlign(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{WorldConfig: WorldConfig{Seed: 3}, Ticks: 20, Windows: 2})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if got := len(res.Ticks); got != res.Config.Ticks {
		t.Fatalf("Ticks has %d entries, want %d", got, res.Config.Ticks)
	}
	for i, r := range res.Ticks {
		_ = fmt.Sprintf("%d:%v", i, r.OK) // trace is serializable per tick
	}
}
