// Package chaos is a deterministic, seeded fault-injection engine for the
// middleware stack. The paper's central robustness claim (§3.4/§3.8) is
// graceful degradation in the presence of failures; this package turns that
// claim into a repeatable experiment instead of an ad-hoc kill loop.
//
// The pieces compose:
//
//   - Schedule: a declarative list of {at, fault, target, duration} steps on
//     a simtime clock. Generate derives one deterministically from a seed.
//   - Engine: applies due steps as the clock advances, tracks the revert of
//     every windowed fault, and records an event trace.
//   - Injector: one per fault kind; the chaos World wires them to the netsim
//     substrate (loss bursts, latency spikes, partitions), to node lifecycle
//     (supplier crash/restart, registry kill), and to the recovery WAL
//     (crash-replay cycles).
//   - invariants: one checker function each over the finished run
//     (at-least-once durability, re-bind bounds, discovery convergence, WAL
//     replay fidelity, and one per optional plane).
//   - Soak: runs N seeded scenarios and reports violations with the
//     configuration that reproduces them.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ndsm/internal/simtime"
)

// FaultKind names one class of injectable fault.
type FaultKind string

// The fault kinds the standard World knows how to inject. The engine itself
// is open: any kind with a registered Injector works.
const (
	// FaultLossBurst raises the substrate's packet loss rate for the window.
	// Target is the burst loss rate, e.g. "0.4" (default 0.5).
	FaultLossBurst FaultKind = "loss-burst"
	// FaultLatencySpike raises one-hop delivery latency for the window.
	// Target is the spike latency, e.g. "30ms".
	FaultLatencySpike FaultKind = "latency-spike"
	// FaultPartition severs every link of the target node for the window.
	FaultPartition FaultKind = "partition"
	// FaultCrashSupplier crash-stops the target supplier node; the revert
	// restarts it.
	FaultCrashSupplier FaultKind = "crash-supplier"
	// FaultKillRegistry crash-stops the centralized registry node, forcing
	// adaptive discovery to fail over to flooding; the revert restarts it.
	FaultKillRegistry FaultKind = "kill-registry"
	// FaultKillRegistryNode crash-stops one member of a registry cluster
	// (target is the member ID, e.g. "registry1"); the revert restarts it.
	// Replication and lookup quorums are expected to absorb the loss.
	FaultKillRegistryNode FaultKind = "kill-registry-node"
	// FaultWALCrash crashes the target supplier's durable storage: the WAL is
	// closed mid-run, reopened, and replayed into a fresh state machine.
	// Instantaneous (no revert window).
	FaultWALCrash FaultKind = "wal-crash"
)

// Step is one scheduled fault.
type Step struct {
	// At is when the fault is injected, measured from the engine's start on
	// its clock.
	At time.Duration
	// Fault selects the registered injector.
	Fault FaultKind
	// Target is injector-specific (a node ID, a rate, a latency).
	Target string
	// Duration is how long the fault lasts before its revert runs. Zero or
	// negative means permanent: the revert (if the injector returned one)
	// only runs at Finish.
	Duration time.Duration
}

// Schedule is a fault plan, ordered by At.
type Schedule []Step

// String renders the schedule canonically — two runs are identical iff their
// Schedule strings are equal.
func (s Schedule) String() string {
	var b strings.Builder
	for _, st := range s {
		fmt.Fprintf(&b, "%v %s %q for %v\n", st.At, st.Fault, st.Target, st.Duration)
	}
	return b.String()
}

// Injector applies one kind of fault to target and returns the revert that
// undoes it (nil when the fault has no undo, e.g. a WAL crash-replay cycle).
type Injector func(target string) (revert func() error, err error)

// Event phases.
const (
	PhaseInject = "inject"
	PhaseRevert = "revert"
)

// Event records one applied schedule action.
type Event struct {
	// At is the action's scheduled offset (not the clock reading when it was
	// applied — schedules, and therefore event traces, are deterministic).
	At     time.Duration
	Fault  FaultKind
	Target string
	Phase  string
}

func (e Event) String() string {
	return fmt.Sprintf("%v %s %s %q", e.At, e.Phase, e.Fault, e.Target)
}

// pendingRevert is a windowed fault waiting to be undone.
type pendingRevert struct {
	at   time.Duration
	step Step
	fn   func() error
}

// Engine drives a Schedule against registered injectors. It is not safe for
// concurrent use: one goroutine advances the clock and calls Step.
type Engine struct {
	clock     simtime.Clock
	start     time.Time
	injectors map[FaultKind]Injector
	pending   []Step          // sorted by At
	reverts   []pendingRevert // sorted by at; permanent faults sit at the tail
	events    []Event
}

// NewEngine creates an engine on the given clock (wall clock if nil). The
// schedule origin is the clock reading at Load.
func NewEngine(clock simtime.Clock) *Engine {
	clock = simtime.OrReal(clock)
	return &Engine{clock: clock, start: clock.Now(), injectors: make(map[FaultKind]Injector)}
}

// Register installs the injector for a fault kind.
func (e *Engine) Register(kind FaultKind, inj Injector) { e.injectors[kind] = inj }

// Load installs the schedule and re-anchors the engine's origin at the
// clock's current reading.
func (e *Engine) Load(s Schedule) {
	e.pending = append(Schedule(nil), s...)
	sort.SliceStable(e.pending, func(i, j int) bool { return e.pending[i].At < e.pending[j].At })
	e.start = e.clock.Now()
}

// Elapsed is the schedule time: how far the clock has moved since Load.
func (e *Engine) Elapsed() time.Duration { return e.clock.Now().Sub(e.start) }

// Events returns the applied actions so far, in application order.
func (e *Engine) Events() []Event { return append([]Event(nil), e.events...) }

// permanentAt marks reverts that only Finish applies.
const permanentAt = time.Duration(1<<63 - 1)

// Step applies every due action — injections whose At has passed and reverts
// whose window has closed — in global schedule order, reverts winning ties.
// The first injector or revert error is returned after all due actions ran.
func (e *Engine) Step() error {
	now := e.Elapsed()
	var firstErr error
	for {
		dueRevert := len(e.reverts) > 0 && e.reverts[0].at <= now
		dueInject := len(e.pending) > 0 && e.pending[0].At <= now
		switch {
		case dueRevert && (!dueInject || e.reverts[0].at <= e.pending[0].At):
			r := e.reverts[0]
			e.reverts = e.reverts[1:]
			if err := r.fn(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("chaos: revert %s %q: %w", r.step.Fault, r.step.Target, err)
			}
			e.events = append(e.events, Event{At: r.at, Fault: r.step.Fault, Target: r.step.Target, Phase: PhaseRevert})
		case dueInject:
			s := e.pending[0]
			e.pending = e.pending[1:]
			if err := e.inject(s); err != nil && firstErr == nil {
				firstErr = err
			}
		default:
			return firstErr
		}
	}
}

func (e *Engine) inject(s Step) error {
	inj := e.injectors[s.Fault]
	if inj == nil {
		return fmt.Errorf("chaos: no injector registered for %s", s.Fault)
	}
	revert, err := inj(s.Target)
	if err != nil {
		return fmt.Errorf("chaos: inject %s %q: %w", s.Fault, s.Target, err)
	}
	e.events = append(e.events, Event{At: s.At, Fault: s.Fault, Target: s.Target, Phase: PhaseInject})
	if revert == nil {
		return nil
	}
	at := permanentAt
	if s.Duration > 0 {
		at = s.At + s.Duration
	}
	r := pendingRevert{at: at, step: s, fn: revert}
	i := sort.Search(len(e.reverts), func(i int) bool { return e.reverts[i].at > at })
	e.reverts = append(e.reverts, pendingRevert{})
	copy(e.reverts[i+1:], e.reverts[i:])
	e.reverts[i] = r
	return nil
}

// Finish injects nothing further and applies every outstanding revert in
// window order, restoring the world to its pre-fault configuration. Events
// for early-applied reverts keep their scheduled At.
func (e *Engine) Finish() error {
	e.pending = nil
	var firstErr error
	for _, r := range e.reverts {
		if err := r.fn(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("chaos: revert %s %q: %w", r.step.Fault, r.step.Target, err)
		}
		e.events = append(e.events, Event{At: r.at, Fault: r.step.Fault, Target: r.step.Target, Phase: PhaseRevert})
	}
	e.reverts = nil
	return firstErr
}

// FaultChoice is one option the schedule generator can draw.
type FaultChoice struct {
	Kind FaultKind
	// Targets to draw from (empty means an empty target string).
	Targets []string
	// Instant marks faults with no revert window (e.g. WAL crash cycles).
	Instant bool
}

// GeneratorConfig parameterizes Generate.
type GeneratorConfig struct {
	// Seed fixes the drawn schedule completely.
	Seed int64
	// Horizon is the schedule's total span.
	Horizon time.Duration
	// Windows is how many faults to draw. The horizon is divided into this
	// many equal windows with one fault each; windows never overlap, so
	// invariant bounds (time-to-recover after a fault clears) stay checkable.
	Windows int
	// Choices is the fault population to draw from.
	Choices []FaultChoice
}

// Generate draws a deterministic schedule: one fault per window, injected in
// the window's first half and reverted by its seventh eighth, leaving at
// least a quarter window of fault-free recovery room before the next fault.
func Generate(cfg GeneratorConfig) Schedule {
	if cfg.Windows <= 0 || cfg.Horizon <= 0 || len(cfg.Choices) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	window := cfg.Horizon / time.Duration(cfg.Windows)
	if window < 8 {
		return nil
	}
	out := make(Schedule, 0, cfg.Windows)
	for i := 0; i < cfg.Windows; i++ {
		c := cfg.Choices[rng.Intn(len(cfg.Choices))]
		target := ""
		if len(c.Targets) > 0 {
			target = c.Targets[rng.Intn(len(c.Targets))]
		}
		at := time.Duration(i)*window + window/8 + time.Duration(rng.Int63n(int64(window/4)))
		dur := window / 2
		if c.Instant {
			dur = 0
		}
		out = append(out, Step{At: at, Fault: c.Kind, Target: target, Duration: dur})
	}
	return out
}
