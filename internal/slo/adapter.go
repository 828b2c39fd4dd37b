package slo

import (
	"fmt"
	"sync"

	"ndsm/internal/endpoint"
	"ndsm/internal/obs"
)

// LaneServer is the slice of an endpoint server (or core node) the quota
// adapter drives: runtime re-reservation of one lane's admission quota.
type LaneServer interface {
	SetLaneQuota(lane endpoint.Lane, quota int) bool
	LaneQuota(lane endpoint.Lane) int
}

// QuotaAdapterOptions wires a QuotaAdapter.
type QuotaAdapterOptions struct {
	// Objective names the SLO whose burn drives the adapter — typically the
	// control lane's deadline-miss ratio (required).
	Objective string
	// Base is the steady-state reserved quota the adapter decays back to.
	Base int
	// Boost is the widened quota applied while the objective burns at
	// warning or worse (must exceed Base).
	Boost int
	// Servers are the admission controllers to retune (at least one).
	Servers []LaneServer
	// Registry receives the adapter's instruments (nil: process default):
	// the "slo.adapter.quota" gauge and "slo.adapter.boosts" counter.
	Registry *obs.Registry
}

// QuotaAdapter is the end-to-end reactive consumer of the alert feed: while
// its objective burns, the control lane's reserved quota widens to Boost —
// borrowing from the shared pool so bulk work funds the control loop's
// headroom — and after recovery it decays back to Base one slot per calm
// evaluation. It closes the PR-8 loop: quotas stop being a hand-tuned
// constant and start following the telemetry the lanes themselves emit.
type QuotaAdapter struct {
	opts   QuotaAdapterOptions
	gauge  *obs.Gauge
	boosts *obs.Counter

	mu      sync.Mutex
	current int
}

// NewQuotaAdapter validates the wiring, applies Base immediately, and
// registers the adapter on the engine's evaluation hook.
func NewQuotaAdapter(e *Engine, opts QuotaAdapterOptions) (*QuotaAdapter, error) {
	if e == nil {
		return nil, fmt.Errorf("slo: quota adapter needs an engine")
	}
	if opts.Objective == "" {
		return nil, fmt.Errorf("slo: quota adapter needs an objective name")
	}
	if len(opts.Servers) == 0 {
		return nil, fmt.Errorf("slo: quota adapter needs at least one server")
	}
	if opts.Base < 0 || opts.Boost <= opts.Base {
		return nil, fmt.Errorf("slo: quota adapter needs Boost (%d) > Base (%d) >= 0", opts.Boost, opts.Base)
	}
	r := obs.Or(opts.Registry)
	a := &QuotaAdapter{
		opts:    opts,
		gauge:   r.Gauge("slo.adapter.quota"),
		boosts:  r.Counter("slo.adapter.boosts"),
		current: opts.Base,
	}
	a.apply(opts.Base)
	e.OnEvaluate(func() { a.step(e.SeverityOf(opts.Objective)) })
	return a, nil
}

// step is the per-evaluation decision: burning (warning or worse) jumps the
// quota to Boost at once — widening late defeats the point — while calm
// evaluations walk it back toward Base one slot at a time, so a flapping burn
// does not slam the shared pool open and shut.
func (a *QuotaAdapter) step(sev Severity) {
	a.mu.Lock()
	next := a.current
	if sev >= Warning {
		next = a.opts.Boost
	} else if a.current > a.opts.Base {
		next = a.current - 1
	}
	changed := next != a.current
	boosted := changed && next == a.opts.Boost && a.current < next
	a.current = next
	a.mu.Unlock()
	if changed {
		a.apply(next)
	}
	if boosted {
		a.boosts.Inc(1)
	}
}

// apply pushes the control lane's quota to every server and records it: the
// adapter exists to protect hard-deadline traffic, and the default lane has
// no reservation to widen.
func (a *QuotaAdapter) apply(quota int) {
	for _, s := range a.opts.Servers {
		s.SetLaneQuota(endpoint.LaneControl, quota)
	}
	a.gauge.Set(float64(quota))
}

// Quota returns the adapter's current target quota.
func (a *QuotaAdapter) Quota() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.current
}
