package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ndsm/internal/simtime"
)

// recordingInjector logs inject/revert order for engine tests.
func recordingInjector(log *[]string) Injector {
	return func(target string) (func() error, error) {
		*log = append(*log, "inject "+target)
		return func() error {
			*log = append(*log, "revert "+target)
			return nil
		}, nil
	}
}

func TestEngineAppliesScheduleInOrder(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	e := NewEngine(clock)
	var log []string
	e.Register(FaultLossBurst, recordingInjector(&log))
	e.Register(FaultPartition, recordingInjector(&log))
	e.Load(Schedule{
		{At: 10 * time.Millisecond, Fault: FaultLossBurst, Target: "a", Duration: 20 * time.Millisecond},
		{At: 15 * time.Millisecond, Fault: FaultPartition, Target: "b", Duration: 5 * time.Millisecond},
	})
	for i := 0; i < 10; i++ {
		clock.Advance(5 * time.Millisecond)
		if err := e.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	want := []string{"inject a", "inject b", "revert b", "revert a"}
	if got := strings.Join(log, ", "); got != strings.Join(want, ", ") {
		t.Fatalf("order = %q, want %q", got, strings.Join(want, ", "))
	}
	events := e.Events()
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	// b's window closes at 20ms, before a's at 30ms: reverts win time order.
	if events[2].Target != "b" || events[2].Phase != PhaseRevert || events[2].At != 20*time.Millisecond {
		t.Fatalf("unexpected third event %+v", events[2])
	}
}

func TestEngineFinishRevertsPermanentFaults(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	e := NewEngine(clock)
	var log []string
	e.Register(FaultCrashSupplier, recordingInjector(&log))
	e.Load(Schedule{{At: time.Millisecond, Fault: FaultCrashSupplier, Target: "s0"}})
	clock.Advance(time.Second)
	if err := e.Step(); err != nil {
		t.Fatalf("step: %v", err)
	}
	if got := strings.Join(log, ", "); got != "inject s0" {
		t.Fatalf("before finish: %q", got)
	}
	if err := e.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if got := strings.Join(log, ", "); got != "inject s0, revert s0" {
		t.Fatalf("after finish: %q", got)
	}
}

func TestEngineUnknownFault(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	e := NewEngine(clock)
	e.Load(Schedule{{At: time.Millisecond, Fault: "no-such-fault"}})
	clock.Advance(time.Second)
	if err := e.Step(); err == nil {
		t.Fatal("expected an error for an unregistered fault kind")
	}
}

func TestGenerateDeterministicAndNonOverlapping(t *testing.T) {
	cfg := GeneratorConfig{
		Seed:    42,
		Horizon: 4 * time.Second,
		Windows: 6,
		Choices: []FaultChoice{
			{Kind: FaultLossBurst, Targets: []string{"0.4"}},
			{Kind: FaultCrashSupplier, Targets: []string{"s0", "s1"}},
			{Kind: FaultWALCrash, Targets: []string{"s0"}, Instant: true},
		},
	}
	a, b := Generate(cfg), Generate(cfg)
	if a.String() != b.String() {
		t.Fatalf("same seed produced different schedules:\n%s\nvs\n%s", a, b)
	}
	if len(a) != cfg.Windows {
		t.Fatalf("generated %d steps, want %d", len(a), cfg.Windows)
	}
	for i := range a {
		if i > 0 {
			prevEnd := a[i-1].At + a[i-1].Duration
			if a[i].At <= prevEnd {
				t.Fatalf("windows overlap: step %d starts at %v, step %d ends at %v",
					i, a[i].At, i-1, prevEnd)
			}
		}
	}
	cfg.Seed = 43
	if c := Generate(cfg); c.String() == a.String() {
		t.Fatalf("different seeds produced identical schedules")
	}
}

// shortScenario keeps wall time per scenario low for short mode.
func shortScenario(seed int64) ScenarioConfig {
	return ScenarioConfig{WorldConfig: WorldConfig{Seed: seed}, Ticks: 60, Windows: 4}
}

func TestScenarioMatrixShort(t *testing.T) {
	seeds := []int64{1, 2}
	if !testing.Short() {
		seeds = []int64{1, 2, 3, 4, 5, 6}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, err := RunScenario(shortScenario(seed))
			if err != nil {
				t.Fatalf("scenario: %v", err)
			}
			if len(res.Events) == 0 {
				t.Fatalf("no fault events applied")
			}
			if res.TicksOK == 0 {
				t.Fatalf("no tick succeeded at all")
			}
			for _, v := range res.Violations {
				t.Errorf("seed %d violation: %s", seed, v)
			}
		})
	}
}

func TestScenarioReproducible(t *testing.T) {
	const seed = 7
	a, err := RunScenario(shortScenario(seed))
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := RunScenario(shortScenario(seed))
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Schedule.String() != b.Schedule.String() {
		t.Fatalf("same seed, different schedules:\n%s\nvs\n%s", a.Schedule, b.Schedule)
	}
	if a.EventsString() != b.EventsString() {
		t.Fatalf("same seed, different event traces:\n%s\nvs\n%s", a.EventsString(), b.EventsString())
	}
	av := strings.Join(a.Violations, "\n")
	bv := strings.Join(b.Violations, "\n")
	if av != bv {
		t.Fatalf("same seed, different verdicts:\n%q\nvs\n%q", av, bv)
	}
}

func TestSoakReportsReproducingSeed(t *testing.T) {
	scenarios := 2
	if !testing.Short() {
		scenarios = 4
	}
	report, err := Soak(shortScenario(11), scenarios)
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if len(report.Results) != scenarios {
		t.Fatalf("results = %d, want %d", len(report.Results), scenarios)
	}
	for i, res := range report.Results {
		if res.Config.Seed != 11+int64(i) {
			t.Fatalf("scenario %d ran seed %d, want %d", i, res.Config.Seed, 11+int64(i))
		}
	}
	for _, v := range report.Violations() {
		if !strings.HasPrefix(v, "seed ") {
			t.Fatalf("violation %q lacks a reproducing-seed prefix", v)
		}
		t.Errorf("soak violation: %s", v)
	}
	if !strings.Contains(report.String(), "scenarios clean") {
		t.Fatalf("report summary malformed: %q", report.String())
	}

	// The recorded config is the reproduction recipe: re-running it replays
	// the identical schedule and event trace, and a violating result prints
	// it as a Go literal.
	res := report.Results[len(report.Results)-1]
	again, err := RunScenario(res.Config)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if again.Schedule.String() != res.Schedule.String() {
		t.Fatalf("recorded config replays a different schedule:\n%s\nvs\n%s", again.Schedule, res.Schedule)
	}
	if again.EventsString() != res.EventsString() {
		t.Fatalf("recorded config replays a different event trace:\n%s\nvs\n%s", again.EventsString(), res.EventsString())
	}
	violating := *res
	violating.Violations = []string{"forced"}
	recipe := fmt.Sprintf("chaos.RunScenario(%#v)", res.Config)
	if s := (&SoakReport{Results: []*ScenarioResult{&violating}}).String(); !strings.Contains(s, recipe) {
		t.Fatalf("report does not print the recorded config %s:\n%s", recipe, s)
	}
}

func TestWorldTickOf(t *testing.T) {
	cases := []struct {
		at   time.Duration
		want int
	}{
		{0, 0},
		{time.Millisecond, 0},
		{50 * time.Millisecond, 0},
		{51 * time.Millisecond, 1},
		{100 * time.Millisecond, 1},
		{101 * time.Millisecond, 2},
	}
	for _, c := range cases {
		if got := tickOf(c.at); got != c.want {
			t.Errorf("tickOf(%v) = %d, want %d", c.at, got, c.want)
		}
	}
}

// TestTracedScenarioCollectsSpans: a clean traced run collects a causal
// timeline but dumps no file.
func TestTracedScenarioCollectsSpans(t *testing.T) {
	dir := t.TempDir()
	cfg := shortScenario(1)
	cfg.TraceDir = dir
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	for _, v := range res.Violations {
		t.Fatalf("expected a clean run, got violation: %s", v)
	}
	if res.Spans == 0 {
		t.Fatal("traced scenario collected no spans")
	}
	if res.TraceFile != "" {
		t.Fatalf("clean run dumped a trace file: %s", res.TraceFile)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("clean run left files in TraceDir: %v", entries)
	}
}

// TestViolatingScenarioDumpsTrace: any violation on a traced run — here a
// deterministic inject error from a schedule naming an unknown fault — dumps
// the full causal trace as Chrome trace-event JSON next to the seed.
func TestViolatingScenarioDumpsTrace(t *testing.T) {
	dir := t.TempDir()
	cfg := shortScenario(9)
	cfg.TraceDir = dir
	cfg.Schedule = Schedule{
		{At: 100 * time.Millisecond, Fault: FaultKind("no-such-fault"), Target: "x"},
	}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("unknown fault kind produced no violation")
	}
	want := filepath.Join(dir, "chaos-seed-9.json")
	if res.TraceFile != want {
		t.Fatalf("TraceFile = %q, want %q", res.TraceFile, want)
	}
	data, err := os.ReadFile(want)
	if err != nil {
		t.Fatalf("trace dump missing: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("dump is not Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("dump has no trace events")
	}
	// The soak report points at the dump.
	report := &SoakReport{Results: []*ScenarioResult{res}}
	if !strings.Contains(report.String(), want) {
		t.Errorf("soak report does not mention the trace file:\n%s", report.String())
	}
}

// TestWorldCloseStopsGoroutines: every world kind, built, ticked and closed,
// leaves no goroutine of its own behind.
func TestWorldCloseStopsGoroutines(t *testing.T) {
	for _, k := range []struct {
		name string
		cfg  WorldConfig
	}{
		{"plain", WorldConfig{Seed: 1, NoLiveness: true}},
		{"liveness", WorldConfig{Seed: 1}},
		{"slo", WorldConfig{Seed: 1, SLO: true}},
		{"overload", WorldConfig{Seed: 1, Overload: true}},
		{"cluster", WorldConfig{Seed: 1, Cluster: true}},
		{"cluster+slo+overload", WorldConfig{Seed: 1, Cluster: true, SLO: true, Overload: true}},
	} {
		t.Run(k.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			vclock := simtime.NewVirtual(time.Unix(0, 0))
			w, err := NewWorld(k.cfg, vclock, nil)
			if err != nil {
				t.Fatalf("world: %v", err)
			}
			for i := 0; i < 5; i++ {
				vclock.Advance(TickEvery)
				w.Tick(i)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			// Close returns before every stopped goroutine has been scheduled
			// to exit; give them a moment.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines before the world, %d after Close:\n%s",
					before, after, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}
