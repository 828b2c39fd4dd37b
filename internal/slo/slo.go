// Package slo judges the middleware's own signals. The repo emits rich
// telemetry — obs counters, in-band trace spans, the per-node series the
// telemetry Aggregator keeps — but until now nothing *evaluated* them: an
// operator had to stare at /dash to notice a deadline-miss spike or a stale
// shard. "Towards Adaptable and Adaptive Policy-Free Middleware" argues the
// middleware itself should detect and react to such conditions, and the
// networked-control-systems literature makes bounded detection latency a
// first-class requirement.
//
// The package provides declarative Objectives (availability, deadline-miss
// rate, shed rate, latency-quantile targets, telemetry freshness) evaluated
// by a clock-injected multi-window burn-rate Engine against the Aggregator's
// per-node series. Each objective owns an error budget (the fraction of bad
// events it tolerates); the engine measures how fast that budget is burning
// over a long and a short window and walks an ok → warning → critical state
// machine with hysteresis, emitting every transition on an Alerts feed.
// Consumers hang off the feed: the flight recorder snapshots a post-mortem
// bundle on any transition to critical, and the quota adapter widens the
// control lane's reservation while its deadline-miss objective burns.
package slo

import (
	"encoding/json"
	"fmt"
	"time"

	"ndsm/internal/telemetry"
)

// Severity is an alert level. Ordered: comparisons like sev >= Warning are
// meaningful.
type Severity int

const (
	// OK means the objective is within budget.
	OK Severity = iota
	// Warning means the long-window burn rate exceeds the warn threshold:
	// the budget is eroding, but not fast enough to page.
	Warning
	// Critical means both windows exceed the critical burn threshold: the
	// budget is burning now and has been for the whole short window.
	Critical
)

// String renders the severity for JSON documents and dashboards.
func (s Severity) String() string {
	switch s {
	case Warning:
		return "warning"
	case Critical:
		return "critical"
	default:
		return "ok"
	}
}

// MarshalJSON encodes severities as their names, not bare ints — alert
// documents are read by humans and external probes.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Kind selects how an objective turns series points into a bad-event
// fraction.
type Kind int

const (
	// KindRatio divides the windowed delta of one cumulative counter series
	// (BadSeries) by another (TotalSeries): availability (errors/requests),
	// deadline-miss rate (missed/issued), shed rate (shed/offered).
	KindRatio Kind = iota
	// KindThreshold takes the fraction of window samples of one gauge or
	// rate series that lie above Max: latency-quantile targets (a published
	// p99 gauge over its limit), queue-depth ceilings.
	KindThreshold
	// KindFreshness watches the aggregator's staleness verdict for the
	// node: each evaluation contributes one sample, bad when the node's
	// telemetry has gone stale. It needs no series name — the absence of
	// reports is the signal.
	KindFreshness
	// KindQuantile samples the cluster-merged histogram's latency quantile for
	// one Topic (telemetry.Aggregator.TopicQuantile) each evaluation, bad
	// when it exceeds Max milliseconds. Unlike KindThreshold — which judges a
	// per-node published p99 gauge — this reads the merged digest of every
	// node's samples, so a quantile target holds across the cluster, not per
	// node. One alert instance per objective, regardless of Node.
	KindQuantile
)

// String names the kind for documents and config files.
func (k Kind) String() string {
	switch k {
	case KindThreshold:
		return "threshold"
	case KindFreshness:
		return "freshness"
	case KindQuantile:
		return "quantile"
	default:
		return "ratio"
	}
}

// Objective is one declarative SLO. The zero value is not valid; Engine.Add
// validates and fills defaults.
type Objective struct {
	// Name identifies the objective in alerts, documents, and adapters
	// (required, unique per engine).
	Name string
	// Description is free text for dashboards.
	Description string
	// Node restricts evaluation to one reporting node. Empty means every
	// node the aggregator knows, each tracked as its own alert instance —
	// that is what "per-node series" buys: a stale shard pages for itself.
	Node string
	// Kind selects the bad-fraction computation (default KindRatio).
	Kind Kind
	// BadSeries / TotalSeries name the cumulative counter series a
	// KindRatio objective divides (as stored by the aggregator: counter
	// names from telemetry reports).
	BadSeries   string
	TotalSeries string
	// Series names the gauge/rate series a KindThreshold objective samples.
	Series string
	// Topic names the request topic a KindQuantile objective judges, as
	// recorded by the reqlog wide events.
	Topic string
	// Quantile is the KindQuantile probe point in (0,1) (default 0.99).
	Quantile float64
	// Max is the KindThreshold / KindQuantile limit: a sample above it is a
	// bad event. For KindQuantile the unit is milliseconds (the digests
	// record latency in ms).
	Max float64
	// Budget is the tolerated bad-event fraction — the error budget. A
	// 99.9% availability target is Budget 0.001. Default 0.01.
	Budget float64
	// Window is the long evaluation window (default 1m). The budget burn
	// measured over it drives the warning level.
	Window time.Duration
	// ShortWindow confirms a critical burn is still happening (default
	// Window/12, the SRE convention): criticals need both windows hot, so a
	// burst that already stopped pages nobody.
	ShortWindow time.Duration
	// WarnBurn and CritBurn are budget burn-rate thresholds (multiples of
	// "exactly spending the budget"). Defaults 1 and 4.
	WarnBurn float64
	CritBurn float64
	// ClearAfter is the hysteresis depth: how many consecutive evaluations
	// below a level's threshold before the alert steps down one level
	// (default 3). Burn oscillating across a threshold therefore holds the
	// level instead of flapping transitions.
	ClearAfter int
}

// key identifies an alert instance: the objective plus the node it binds to.
func (o *Objective) key(node string) string { return o.Name + "\x00" + node }

// withDefaults validates and normalizes.
func (o Objective) withDefaults() (Objective, error) {
	if o.Name == "" {
		return o, fmt.Errorf("slo: objective needs a name")
	}
	switch o.Kind {
	case KindRatio:
		if o.BadSeries == "" || o.TotalSeries == "" {
			return o, fmt.Errorf("slo: ratio objective %s needs BadSeries and TotalSeries", o.Name)
		}
	case KindThreshold:
		if o.Series == "" {
			return o, fmt.Errorf("slo: threshold objective %s needs a Series", o.Name)
		}
	case KindFreshness:
		// No series: the aggregator's staleness verdict is the signal.
	case KindQuantile:
		if o.Topic == "" {
			return o, fmt.Errorf("slo: quantile objective %s needs a Topic", o.Name)
		}
		if o.Max <= 0 {
			return o, fmt.Errorf("slo: quantile objective %s needs Max > 0 (ms)", o.Name)
		}
		if o.Quantile < 0 || o.Quantile >= 1 {
			return o, fmt.Errorf("slo: quantile objective %s quantile %v outside [0,1)", o.Name, o.Quantile)
		}
		if o.Quantile == 0 {
			o.Quantile = 0.99
		}
	default:
		return o, fmt.Errorf("slo: objective %s has unknown kind %d", o.Name, o.Kind)
	}
	if o.Budget <= 0 || o.Budget > 1 {
		if o.Budget != 0 {
			return o, fmt.Errorf("slo: objective %s budget %v outside (0,1]", o.Name, o.Budget)
		}
		o.Budget = 0.01
	}
	if o.Window <= 0 {
		o.Window = time.Minute
	}
	if o.ShortWindow <= 0 {
		o.ShortWindow = o.Window / 12
		if o.ShortWindow <= 0 {
			o.ShortWindow = o.Window
		}
	}
	if o.WarnBurn <= 0 {
		o.WarnBurn = 1
	}
	if o.CritBurn <= 0 {
		o.CritBurn = 4
	}
	if o.CritBurn < o.WarnBurn {
		o.CritBurn = o.WarnBurn
	}
	if o.ClearAfter <= 0 {
		o.ClearAfter = 3
	}
	return o, nil
}

// counterDelta measures a cumulative counter series' growth across the
// window ending at now: newest value minus the value at the window's start
// (the latest point at or before now-w). A series born inside the window
// counts from zero — the aggregator builds these series from deltas, so
// before the first point the counter simply didn't exist. A series whose
// newest point predates the window contributes nothing — windows only ever
// advance on ingested points, so replayed (seq-rejected) telemetry cannot
// move them.
func counterDelta(pts []telemetry.Point, now time.Time, w time.Duration) (float64, bool) {
	if len(pts) == 0 {
		return 0, false
	}
	last := pts[len(pts)-1]
	cut := now.Add(-w)
	if !last.T.After(cut) {
		return 0, false // newest data predates the window
	}
	base := 0.0
	for i := len(pts) - 1; i >= 0; i-- {
		if !pts[i].T.After(cut) {
			base = pts[i].V
			break
		}
	}
	d := last.V - base
	if d < 0 {
		d = 0 // counter reset (node restart): treat as fresh start
	}
	return d, true
}

// overFraction is the threshold kinds' window math: the fraction of samples
// inside (now-w, now] whose value exceeds max. ok=false when the window
// holds no samples.
func overFraction(pts []telemetry.Point, now time.Time, w time.Duration, max float64) (float64, bool) {
	cut := now.Add(-w)
	var n, over int
	for i := len(pts) - 1; i >= 0; i-- {
		if !pts[i].T.After(cut) {
			break
		}
		n++
		if pts[i].V > max {
			over++
		}
	}
	if n == 0 {
		return 0, false
	}
	return float64(over) / float64(n), true
}
