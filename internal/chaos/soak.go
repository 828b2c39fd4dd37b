package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ndsm/internal/flightrec"
	"ndsm/internal/reqlog"
	"ndsm/internal/simtime"
	"ndsm/internal/slo"
	"ndsm/internal/trace"
)

// ScenarioConfig is one seeded chaos scenario: a world kind plus the run's
// length and faults. Printed with %#v it is the Go literal that replays the
// run.
type ScenarioConfig struct {
	// WorldConfig is the world the scenario runs on. Its Seed also fixes the
	// generated fault schedule: the same config reproduces the same schedule
	// and the same invariant verdicts.
	WorldConfig
	// Ticks is the workload length.
	Ticks int
	// Windows is how many faults the generator draws over the run. Zero
	// with no Schedule runs the world calm: with SLO on, that is the
	// false-positive soak — a calm run must end with zero alert transitions.
	Windows int
	// Schedule overrides the generated fault schedule (Seed still fixes the
	// substrate RNG). Experiments use this to replay one hand-built kill
	// schedule under different world configurations.
	Schedule Schedule
	// TraceDir, when set, runs the whole scenario under a shared tracer and
	// — the payoff — dumps the full causal trace of any violating run as
	// Chrome trace-event JSON at <TraceDir>/chaos-seed-<seed>.json, so a
	// reproducing failure seed arrives with its timeline attached. Violating
	// SLO runs additionally dump the flight recorder's bundles beside it, and
	// violating overload runs their shed records. Clean runs dump nothing.
	TraceDir string
}

// ScenarioResult is one scenario's outcome.
type ScenarioResult struct {
	// Config is the configuration the scenario ran; RunScenario(Config)
	// replays the same schedule, events and verdicts.
	Config    ScenarioConfig
	Schedule  Schedule
	Events    []Event
	Ticks     []TickRecord
	TicksOK   int
	LookupsOK int
	Rebinds   int64
	// DeadAttempts counts ticks whose request was aimed at a dead supplier
	// without liveness diversion (see World.DeadAttempts).
	DeadAttempts int64
	// Violations holds every invariant violation, prefixed by the invariant
	// name. Empty means the run was clean.
	Violations []string
	// TraceFile is the Chrome trace-event dump of a violating traced run
	// (empty for clean runs or when ScenarioConfig.TraceDir was unset).
	TraceFile string
	// Spans counts the causal spans collected for a traced run.
	Spans int
	// Alerts is every SLO alert transition over the run, in order (empty
	// unless the world runs SLO). The calm-world soak asserts it stays
	// empty; faulty runs read detection latency off the At stamps.
	Alerts []slo.Transition
	// FlightFile is the flight-recorder bundle dump of a violating SLO run
	// (empty for clean runs or when TraceDir was unset).
	FlightFile string
	// TailFile is the wide-event shed-record dump of a violating overload
	// run — every supplier's retained shed exemplars, keyed by supplier
	// (empty for clean runs or when TraceDir was unset).
	TailFile string
}

// EventsString renders the applied-event trace canonically.
func (r *ScenarioResult) EventsString() string {
	var b strings.Builder
	for _, ev := range r.Events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// StandardChoices is the fault population a standard world supports, with
// targets wired to its node IDs.
func StandardChoices(w *World) []FaultChoice {
	sups := w.SupplierIDs()
	registryKill := FaultChoice{Kind: FaultKillRegistry, Targets: []string{RegistryID}}
	if members := w.ClusterMembers(); len(members) > 0 {
		// Cluster worlds have no single registry to kill; the generator draws
		// single-member kills instead, which replication must absorb.
		registryKill = FaultChoice{Kind: FaultKillRegistryNode, Targets: members}
	}
	return []FaultChoice{
		{Kind: FaultLossBurst, Targets: []string{"0.4"}},
		{Kind: FaultLatencySpike, Targets: []string{"30ms"}},
		{Kind: FaultPartition, Targets: sups},
		{Kind: FaultCrashSupplier, Targets: sups},
		registryKill,
		{Kind: FaultWALCrash, Targets: sups, Instant: true},
	}
}

// RunScenario builds a world, generates the seed's fault schedule, drives
// the workload tick by tick with the engine injecting along the way, and
// checks every invariant over the finished run.
//
// Determinism: the schedule and the applied-event trace are pure functions
// of the config — its seed, world kind, Ticks and Windows. Per-tick outcomes
// can shift between runs (concurrent flood replies consume substrate RNG
// draws in nondeterministic order), which is why the invariant bounds are
// set conservatively — verdicts, not individual ticks, are the reproducible
// artifact.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	vclock := simtime.NewVirtual(time.Unix(0, 0))
	var collector *trace.Collector
	if cfg.TraceDir != "" {
		collector = trace.NewCollector(1 << 16)
	}
	world, err := NewWorld(cfg.WorldConfig, vclock, collector)
	if err != nil {
		return nil, fmt.Errorf("chaos: world seed %d: %w", cfg.Seed, err)
	}
	defer world.Close() //nolint:errcheck

	schedule := cfg.Schedule
	if len(schedule) == 0 {
		schedule = Generate(GeneratorConfig{
			Seed:    cfg.Seed,
			Horizon: time.Duration(cfg.Ticks) * TickEvery,
			Windows: cfg.Windows,
			Choices: StandardChoices(world),
		})
	}
	engine := NewEngine(vclock)
	world.RegisterInjectors(engine)
	engine.Load(schedule)

	var injectErrs []string
	for i := 0; i < cfg.Ticks; i++ {
		vclock.Advance(TickEvery)
		if err := engine.Step(); err != nil {
			injectErrs = append(injectErrs, err.Error())
		}
		world.Tick(i)
	}
	if err := engine.Finish(); err != nil {
		injectErrs = append(injectErrs, err.Error())
	}
	events := engine.Events()

	res := &ScenarioResult{
		Config:       cfg,
		Schedule:     schedule,
		Events:       events,
		Ticks:        world.Ticks(),
		Rebinds:      world.Binding().Rebinds.Load(),
		DeadAttempts: world.DeadAttempts(),
		Alerts:       world.AlertTransitions(),
	}
	for _, r := range res.Ticks {
		if r.OK {
			res.TicksOK++
		}
		if r.LookupOK {
			res.LookupsOK++
		}
	}
	for _, msg := range injectErrs {
		res.Violations = append(res.Violations, "inject: "+msg)
	}
	for _, inv := range invariants {
		for _, v := range inv.check(world, events) {
			res.Violations = append(res.Violations, inv.name+": "+v)
		}
	}
	if collector != nil {
		res.Spans = collector.Len()
		if len(res.Violations) > 0 {
			path := filepath.Join(cfg.TraceDir, fmt.Sprintf("chaos-seed-%d.json", cfg.Seed))
			if err := trace.WriteChromeFile(path, collector.Spans()); err != nil {
				res.Violations = append(res.Violations, "trace: dump failed: "+err.Error())
			} else {
				res.TraceFile = path
			}
		}
	}
	// A violating SLO run dumps its post-mortem bundles beside the trace —
	// the black box arrives with the failure report.
	if rec := world.FlightRecorder(); rec != nil && cfg.TraceDir != "" && len(res.Violations) > 0 {
		path := filepath.Join(cfg.TraceDir, fmt.Sprintf("chaos-flight-%d.json", cfg.Seed))
		if err := writeFlightFile(path, rec); err != nil {
			res.Violations = append(res.Violations, "flight: dump failed: "+err.Error())
		} else {
			res.FlightFile = path
		}
	}
	// A violating overload run dumps its shed exemplars too: the tail ring
	// holds exactly the anomalous requests a post-mortem starts from.
	if cfg.TraceDir != "" && len(res.Violations) > 0 {
		if sheds := world.ShedRecords(); len(sheds) > 0 {
			path := filepath.Join(cfg.TraceDir, fmt.Sprintf("chaos-tail-%d.json", cfg.Seed))
			if err := writeTailFile(path, sheds); err != nil {
				res.Violations = append(res.Violations, "tail: dump failed: "+err.Error())
			} else {
				res.TailFile = path
			}
		}
	}
	return res, nil
}

// writeTailFile dumps per-supplier shed wide events to path as one indented
// JSON document.
func writeTailFile(path string, sheds map[string][]reqlog.Record) error {
	data, err := json.MarshalIndent(sheds, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeFlightFile dumps a recorder's retained bundles to path.
func writeFlightFile(path string, rec *flightrec.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// SoakReport aggregates a soak's scenario results.
type SoakReport struct {
	Results []*ScenarioResult
}

// Soak runs n scenarios of sc's kind, seeds sc.Seed … sc.Seed+n-1, and
// aggregates their results. Any violation comes back tagged with the seed
// that reproduces it.
func Soak(sc ScenarioConfig, n int) (*SoakReport, error) {
	report := &SoakReport{}
	for i := 0; i < n; i++ {
		cfg := sc
		cfg.Seed = sc.Seed + int64(i)
		res, err := RunScenario(cfg)
		if err != nil {
			return nil, err
		}
		report.Results = append(report.Results, res)
	}
	return report, nil
}

// Violations returns every violation across the soak, each prefixed with
// the reproducing seed.
func (r *SoakReport) Violations() []string {
	var out []string
	for _, res := range r.Results {
		for _, v := range res.Violations {
			out = append(out, fmt.Sprintf("seed %d: %s", res.Config.Seed, v))
		}
	}
	return out
}

// String summarizes the soak, including the reproduction recipe for each
// violating seed: the Go literal of the config it ran.
func (r *SoakReport) String() string {
	var b strings.Builder
	clean := 0
	for _, res := range r.Results {
		if len(res.Violations) == 0 {
			clean++
		}
	}
	fmt.Fprintf(&b, "chaos soak: %d/%d scenarios clean\n", clean, len(r.Results))
	for _, v := range r.Violations() {
		fmt.Fprintf(&b, "  VIOLATION %s\n", v)
	}
	for _, res := range r.Results {
		seed := res.Config.Seed
		if res.TraceFile != "" {
			fmt.Fprintf(&b, "  trace for seed %d: %s\n", seed, res.TraceFile)
		}
		if res.FlightFile != "" {
			fmt.Fprintf(&b, "  flight bundles for seed %d: %s\n", seed, res.FlightFile)
		}
		if res.TailFile != "" {
			fmt.Fprintf(&b, "  shed tail records for seed %d: %s\n", seed, res.TailFile)
		}
		if len(res.Violations) > 0 {
			fmt.Fprintf(&b, "  reproduce seed %d with chaos.RunScenario(%#v)\n", seed, res.Config)
		}
	}
	return b.String()
}
