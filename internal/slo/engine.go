package slo

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/telemetry"
)

// Options assembles an Engine.
type Options struct {
	// Aggregator supplies the per-node series the objectives judge
	// (required).
	Aggregator *telemetry.Aggregator
	// Clock drives window boundaries and evaluation pacing (default real
	// time; a *simtime.Virtual makes burn-rate math deterministic in
	// tests and simulated worlds).
	Clock simtime.Clock
	// Registry receives the engine's own instruments (nil: counted
	// nowhere): "slo.evaluations", "slo.transitions", and the
	// "slo.alerts.warning" / "slo.alerts.critical" gauges.
	Registry *obs.Registry
}

// freshnessWindow caps the per-node sample ring freshness and quantile
// objectives evaluate over. Bounded: such an objective costs a fixed ring
// per node, nothing more.
const freshnessWindow = 64

// Transition is one alert state change.
type Transition struct {
	// Objective and Node identify the alert instance.
	Objective string `json:"objective"`
	Node      string `json:"node,omitempty"`
	// From and To are the severities crossed.
	From Severity `json:"from"`
	To   Severity `json:"to"`
	// At is the engine clock at the evaluation that crossed.
	At time.Time `json:"at"`
	// BurnLong/BurnShort/BadFraction are the window values that drove the
	// decision — the numbers a post-mortem wants first.
	BurnLong    float64 `json:"burnLong"`
	BurnShort   float64 `json:"burnShort"`
	BadFraction float64 `json:"badFraction"`
}

// AlertState is one alert instance's live view, served at GET /alerts.
type AlertState struct {
	Objective   string        `json:"objective"`
	Description string        `json:"description,omitempty"`
	Kind        string        `json:"kind"`
	Node        string        `json:"node,omitempty"`
	Severity    Severity      `json:"severity"`
	Since       time.Time     `json:"since"`
	BurnLong    float64       `json:"burnLong"`
	BurnShort   float64       `json:"burnShort"`
	BadFraction float64       `json:"badFraction"`
	Budget      float64       `json:"budget"`
	Window      time.Duration `json:"windowNs"`
}

// Summary counts live alert instances by severity — the cheap digest
// /healthz embeds so external probes see SLO state without parsing /alerts.
type Summary struct {
	OK       int `json:"ok"`
	Warning  int `json:"warning"`
	Critical int `json:"critical"`
}

// Alerts is the engine's transition feed: callbacks get every transition
// after they register (the live state is always recoverable from
// Engine.States, so the feed is a nudge, not a log).
type Alerts struct {
	mu  sync.Mutex
	fns []func(Transition)
}

// Notify registers a synchronous callback invoked (outside the engine lock)
// for every transition. Callbacks must not block.
func (a *Alerts) Notify(fn func(Transition)) {
	a.mu.Lock()
	a.fns = append(a.fns, fn)
	a.mu.Unlock()
}

func (a *Alerts) emit(t Transition) {
	a.mu.Lock()
	fns := append([]func(Transition){}, a.fns...)
	a.mu.Unlock()
	for _, fn := range fns {
		fn(t)
	}
}

// alertInstance is the per-(objective, node) burn-rate state machine.
type alertInstance struct {
	obj  *Objective
	node string

	sev       Severity
	since     time.Time
	calm      int // consecutive evaluations below the current level
	burnLong  float64
	burnShort float64
	badFrac   float64
	fresh     *telemetry.Series // KindFreshness, KindQuantile: engine-recorded samples
}

// Engine evaluates objectives against the aggregator on demand (Evaluate)
// or on a paced loop (Start). All window math runs on the injected clock.
type Engine struct {
	opts   Options
	alerts *Alerts

	evals       *obs.Counter
	transitions *obs.Counter
	gWarn       *obs.Gauge
	gCrit       *obs.Gauge

	mu        sync.Mutex
	objs      []*Objective
	instances map[string]*alertInstance
	afterEval []func()
	loop      *simtime.Loop // Start's, nil until then
	closed    bool
}

// New builds an engine. It starts with no objectives; Add installs them.
func New(opts Options) (*Engine, error) {
	if opts.Aggregator == nil {
		return nil, fmt.Errorf("slo: engine needs an aggregator")
	}
	opts.Clock = simtime.OrReal(opts.Clock)
	r := opts.Registry
	return &Engine{
		opts:        opts,
		alerts:      &Alerts{},
		evals:       r.Counter("slo.evaluations"),
		transitions: r.Counter("slo.transitions"),
		gWarn:       r.Gauge("slo.alerts.warning"),
		gCrit:       r.Gauge("slo.alerts.critical"),
		instances:   make(map[string]*alertInstance),
	}, nil
}

// Add validates, normalizes, and installs one objective.
func (e *Engine) Add(o Objective) error {
	o, err := o.withDefaults()
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, prev := range e.objs {
		if prev.Name == o.Name {
			return fmt.Errorf("slo: duplicate objective %q", o.Name)
		}
	}
	e.objs = append(e.objs, &o)
	return nil
}

// Objectives returns the installed objectives (copies, sorted by name).
func (e *Engine) Objectives() []Objective {
	e.mu.Lock()
	out := make([]Objective, 0, len(e.objs))
	for _, o := range e.objs {
		out = append(out, *o)
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Alerts returns the engine's transition feed.
func (e *Engine) Alerts() *Alerts { return e.alerts }

// OnEvaluate registers a callback invoked (outside the engine lock) after
// every evaluation pass — the hook reactive consumers like the quota
// adapter pace their decay on.
func (e *Engine) OnEvaluate(fn func()) {
	e.mu.Lock()
	e.afterEval = append(e.afterEval, fn)
	e.mu.Unlock()
}

// Evaluate runs one burn-rate pass over every objective at the engine
// clock's now, returning the transitions it caused (also emitted on the
// Alerts feed). With no objectives configured it is a guarded no-op — zero
// allocations, so an idle engine costs nothing (the ndsm-bench AllocsPerRun
// guard holds it to that).
func (e *Engine) Evaluate() []Transition {
	e.mu.Lock()
	if len(e.objs) == 0 {
		e.mu.Unlock()
		return nil
	}
	now := e.opts.Clock.Now()
	var trans []Transition
	live := make(map[string]bool)
	for _, o := range e.objs {
		nodes := []string{o.Node}
		// Quantile objectives judge the cluster-merged digest, so they get
		// exactly one instance even with Node unset.
		if o.Node == "" && o.Kind != KindQuantile {
			nodes = e.opts.Aggregator.Nodes()
		}
		for _, node := range nodes {
			k := o.key(node)
			live[k] = true
			inst := e.instances[k]
			if inst == nil {
				inst = &alertInstance{obj: o, node: node, since: now}
				if o.Kind == KindFreshness || o.Kind == KindQuantile {
					inst.fresh = telemetry.NewSeries(freshnessWindow)
				}
				e.instances[k] = inst
			}
			if t, changed := e.judgeLocked(inst, now); changed {
				trans = append(trans, t)
			}
		}
	}
	// Drop instances whose node vanished from a per-node objective (the
	// aggregator never forgets nodes today, but the map must not grow
	// unbounded if that changes).
	for k := range e.instances {
		if !live[k] {
			delete(e.instances, k)
		}
	}
	var warn, crit int
	for _, inst := range e.instances {
		switch inst.sev {
		case Warning:
			warn++
		case Critical:
			crit++
		}
	}
	hooks := e.afterEval
	e.mu.Unlock()
	e.evals.Inc(1)
	e.gWarn.Set(float64(warn))
	e.gCrit.Set(float64(crit))
	if len(trans) > 0 {
		e.transitions.Inc(int64(len(trans)))
		for _, t := range trans {
			e.alerts.emit(t)
		}
	}
	for _, fn := range hooks {
		fn()
	}
	return trans
}

// judgeLocked computes one instance's window burns and advances its state
// machine. Upgrades are immediate (paging late is the one unforgivable
// failure mode); downgrades wait for ClearAfter consecutive calm
// evaluations and step one level at a time, so burn oscillating across a
// threshold keeps its level instead of flapping transitions.
func (e *Engine) judgeLocked(inst *alertInstance, now time.Time) (Transition, bool) {
	o := inst.obj
	var longFrac, shortFrac float64
	var longOK, shortOK bool
	switch o.Kind {
	case KindRatio:
		bad := e.opts.Aggregator.Series(inst.node, o.BadSeries)
		total := e.opts.Aggregator.Series(inst.node, o.TotalSeries)
		longFrac, longOK = ratioOver(bad, total, now, o.Window)
		shortFrac, shortOK = ratioOver(bad, total, now, o.ShortWindow)
	case KindThreshold:
		pts := e.opts.Aggregator.Series(inst.node, o.Series)
		longFrac, longOK = overFraction(pts, now, o.Window, o.Max)
		shortFrac, shortOK = overFraction(pts, now, o.ShortWindow, o.Max)
	case KindFreshness:
		stale := 0.0
		if !e.opts.Aggregator.Fresh(inst.node) {
			stale = 1
		}
		inst.fresh.Append(telemetry.Point{T: now, V: stale})
		pts := inst.fresh.Points()
		longFrac, longOK = overFraction(pts, now, o.Window, 0.5)
		shortFrac, shortOK = overFraction(pts, now, o.ShortWindow, 0.5)
	case KindQuantile:
		// Sample the cluster-merged digest into the instance's ring — the
		// same engine-recorded mechanism freshness uses, because a merged
		// quantile (like a staleness verdict) is not a stored series. No
		// digests yet: no sample, and the windows stay inconclusive.
		if v, ok := e.opts.Aggregator.TopicQuantile(o.Topic, o.Quantile); ok {
			inst.fresh.Append(telemetry.Point{T: now, V: v})
		}
		pts := inst.fresh.Points()
		longFrac, longOK = overFraction(pts, now, o.Window, o.Max)
		shortFrac, shortOK = overFraction(pts, now, o.ShortWindow, o.Max)
	}
	inst.burnLong, inst.burnShort, inst.badFrac = 0, 0, 0
	if longOK {
		inst.burnLong = longFrac / o.Budget
		inst.badFrac = longFrac
	}
	if shortOK {
		inst.burnShort = shortFrac / o.Budget
	}

	target := OK
	switch {
	case longOK && shortOK && inst.burnLong >= o.CritBurn && inst.burnShort >= o.CritBurn:
		target = Critical
	case longOK && inst.burnLong >= o.WarnBurn:
		target = Warning
	}

	prev := inst.sev
	switch {
	case target > inst.sev:
		inst.sev = target
		inst.calm = 0
	case target < inst.sev:
		inst.calm++
		if inst.calm >= o.ClearAfter {
			inst.sev-- // step down one level, re-arm the counter
			inst.calm = 0
		}
	default:
		inst.calm = 0
	}
	if inst.sev == prev {
		return Transition{}, false
	}
	inst.since = now
	return Transition{
		Objective:   o.Name,
		Node:        inst.node,
		From:        prev,
		To:          inst.sev,
		At:          now,
		BurnLong:    inst.burnLong,
		BurnShort:   inst.burnShort,
		BadFraction: inst.badFrac,
	}, true
}

// ratioOver is the KindRatio window math: windowed bad-counter growth over
// windowed total growth. No total growth means no traffic — not a burn.
func ratioOver(bad, total []telemetry.Point, now time.Time, w time.Duration) (float64, bool) {
	totalD, ok := counterDelta(total, now, w)
	if !ok || totalD <= 0 {
		return 0, false
	}
	badD, _ := counterDelta(bad, now, w)
	if badD > totalD {
		badD = totalD
	}
	return badD / totalD, true
}

// States snapshots every alert instance, sorted by objective then node.
func (e *Engine) States() []AlertState {
	e.mu.Lock()
	out := make([]AlertState, 0, len(e.instances))
	for _, inst := range e.instances {
		out = append(out, AlertState{
			Objective:   inst.obj.Name,
			Description: inst.obj.Description,
			Kind:        inst.obj.Kind.String(),
			Node:        inst.node,
			Severity:    inst.sev,
			Since:       inst.since,
			BurnLong:    inst.burnLong,
			BurnShort:   inst.burnShort,
			BadFraction: inst.badFrac,
			Budget:      inst.obj.Budget,
			Window:      inst.obj.Window,
		})
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Objective != out[j].Objective {
			return out[i].Objective < out[j].Objective
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// SeverityOf returns the worst live severity across the objective's alert
// instances — what an adapter watching one objective keys off.
func (e *Engine) SeverityOf(objective string) Severity {
	worst := OK
	e.mu.Lock()
	for _, inst := range e.instances {
		if inst.obj.Name == objective && inst.sev > worst {
			worst = inst.sev
		}
	}
	e.mu.Unlock()
	return worst
}

// Summary counts live alert instances by severity.
func (e *Engine) Summary() Summary {
	var s Summary
	e.mu.Lock()
	for _, inst := range e.instances {
		switch inst.sev {
		case Critical:
			s.Critical++
		case Warning:
			s.Warning++
		default:
			s.OK++
		}
	}
	e.mu.Unlock()
	return s
}

// Start launches a paced evaluation loop on the engine's clock (interval
// <= 0 defaults to 5s). Simulated worlds skip Start and call Evaluate from
// their tick instead.
func (e *Engine) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.loop != nil {
		return
	}
	e.loop = simtime.Every(e.opts.Clock, interval, func() { e.Evaluate() })
}

// Close stops the Start loop, if running.
func (e *Engine) Close() error {
	e.mu.Lock()
	e.closed = true
	loop := e.loop
	e.mu.Unlock()
	loop.Stop()
	return nil
}
