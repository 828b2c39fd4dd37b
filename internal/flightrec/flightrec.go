// Package flightrec is the middleware's black-box flight recorder. When an
// SLO alert goes critical, the moments *before* the page are exactly the
// data an operator needs and exactly the data that is gone by the time they
// attach a debugger: the recent spans, the counter deltas, which peers the
// failure detector suspected, how the admission lanes were spending their
// slots. A Recorder snapshots all of it into one bounded JSON bundle at the
// instant of the transition — the aviation flight-recorder idea applied to
// middleware: always armed, overwritten in a ring, read only after the
// incident (webbridge GET /flight, or dumped beside a failing chaos seed's
// trace).
//
// The recorder takes no dependency on the alerting engine — any caller may
// trigger a snapshot — so the slo package and this one stay independently
// testable; node binaries and chaos worlds wire an engine's transition feed
// to Recorder.Snapshot in a few lines.
package flightrec

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
	"time"

	"ndsm/internal/health"
	"ndsm/internal/obs"
	"ndsm/internal/reqlog"
	"ndsm/internal/simtime"
	"ndsm/internal/telemetry"
	"ndsm/internal/trace"
)

// Options assembles a Recorder. Every source is optional — a bundle records
// whatever planes the host process runs.
type Options struct {
	// Clock stamps bundles and paces the rate limit (default real time).
	Clock simtime.Clock
	// MinInterval rate-limits snapshots: triggers arriving sooner after the
	// previous bundle are counted but not recorded (default 0: no limit).
	// A flapping alert must not turn the recorder into an allocation storm.
	MinInterval time.Duration
	// Spans is the trace collector recent spans are pulled from.
	Spans *trace.Collector
	// Metrics is the obs registry snapshotted into every bundle (and
	// diffed against the previous bundle's snapshot).
	Metrics *obs.Registry
	// Health contributes the per-peer failure-detector states.
	Health *health.Monitor
	// Aggregator contributes per-node telemetry freshness at the instant
	// of the snapshot.
	Aggregator *telemetry.Aggregator
	// ReqLog contributes the wide-event tail ring — the anomalous request
	// exemplars (sheds, errors, deadline-tight calls) retained at snapshot
	// time.
	ReqLog *reqlog.Recorder
}

const (
	// capacity bounds the retained bundle ring, oldest evicted.
	capacity = 8
	// maxSpans bounds the spans copied per bundle, newest kept: a
	// post-mortem wants the last moments, not the whole ring.
	maxSpans = 256
	// maxRequests bounds the tail records copied per bundle, newest kept.
	maxRequests = 128
)

// Trigger describes why a bundle was cut — the firing SLO and its window
// values, or any caller-defined reason.
type Trigger struct {
	// Objective and Node identify the firing alert instance.
	Objective string `json:"objective"`
	Node      string `json:"node,omitempty"`
	// Severity is the level the alert transitioned to.
	Severity string `json:"severity"`
	// Windows carries the firing SLO's window values (burn rates, bad
	// fraction) — the numbers the post-mortem reads first.
	Windows map[string]float64 `json:"windows,omitempty"`
}

// NodeFreshness is one reporting node's telemetry liveness at snapshot
// time.
type NodeFreshness struct {
	Node  string `json:"node"`
	Fresh bool   `json:"fresh"`
}

// Bundle is one post-mortem snapshot, serialized as a single JSON object.
type Bundle struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Trigger Trigger   `json:"trigger"`
	// Spans are the newest spans in the collector at snapshot time.
	Spans       []trace.Span `json:"spans,omitempty"`
	SpanTotal   uint64       `json:"spanTotal,omitempty"`
	SpanDropped uint64       `json:"spanDropped,omitempty"`
	// Obs is the full instrument snapshot; ObsDelta is its diff against
	// the previous bundle's snapshot (nil on the first bundle) — "what
	// changed since the last incident" without replaying counters by hand.
	Obs      *obs.Snapshot `json:"obs,omitempty"`
	ObsDelta *obs.Snapshot `json:"obsDelta,omitempty"`
	// Lanes extracts the per-lane admission counters and gauges
	// (".lane." and ".shed" series) from Obs for direct reading.
	Lanes map[string]float64 `json:"lanes,omitempty"`
	// Health is every tracked peer's failure-detector verdict.
	Health []health.PeerStatus `json:"health,omitempty"`
	// Telemetry is per-node freshness from the aggregator.
	Telemetry []NodeFreshness `json:"telemetry,omitempty"`
	// Requests is the wide-event tail ring at snapshot time, newest first:
	// every shed, errored, or deadline-tight request the recorder retained.
	Requests []reqlog.Record `json:"requests,omitempty"`
}

// Recorder keeps the bounded bundle ring. Safe for concurrent use.
type Recorder struct {
	opts Options

	mu         sync.Mutex
	seq        uint64
	lastCut    time.Time
	hasCut     bool
	prevObs    obs.Snapshot
	hasPrev    bool
	ring       []*Bundle
	suppressed uint64
}

// NewRecorder builds a recorder.
func NewRecorder(opts Options) *Recorder {
	opts.Clock = simtime.OrReal(opts.Clock)
	return &Recorder{opts: opts}
}

// Snapshot cuts one bundle now. Returns nil when the rate limit suppressed
// it (the suppression is counted; see Suppressed).
func (r *Recorder) Snapshot(t Trigger) *Bundle {
	now := r.opts.Clock.Now()
	r.mu.Lock()
	if r.opts.MinInterval > 0 && r.hasCut && now.Sub(r.lastCut) < r.opts.MinInterval {
		r.suppressed++
		r.mu.Unlock()
		return nil
	}
	r.seq++
	b := &Bundle{Seq: r.seq, Time: now, Trigger: t}
	if c := r.opts.Spans; c != nil {
		spans := c.Spans()
		if len(spans) > maxSpans {
			spans = spans[len(spans)-maxSpans:]
		}
		b.Spans = spans
		b.SpanTotal = c.Total()
		b.SpanDropped = c.Dropped()
	}
	if reg := r.opts.Metrics; reg != nil {
		snap := reg.Snapshot()
		b.Obs = &snap
		if r.hasPrev {
			delta := snap.Diff(r.prevObs)
			b.ObsDelta = &delta
		}
		r.prevObs = snap
		r.hasPrev = true
		b.Lanes = laneCounters(snap)
	}
	if m := r.opts.Health; m != nil {
		b.Health = m.Status()
	}
	if agg := r.opts.Aggregator; agg != nil {
		for _, node := range agg.Nodes() {
			b.Telemetry = append(b.Telemetry, NodeFreshness{Node: node, Fresh: agg.Fresh(node)})
		}
	}
	if rec := r.opts.ReqLog; rec != nil {
		reqs := rec.Tail()
		if len(reqs) > maxRequests {
			reqs = reqs[:maxRequests] // newest first: keep the head
		}
		b.Requests = reqs
	}
	r.lastCut = now
	r.hasCut = true
	r.ring = append(r.ring, b)
	if len(r.ring) > capacity {
		r.ring = r.ring[len(r.ring)-capacity:]
	}
	r.mu.Unlock()
	return b
}

// laneCounters pulls the admission-plane series out of a snapshot: per-lane
// admitted/shed/queued plus the shed totals.
func laneCounters(s obs.Snapshot) map[string]float64 {
	out := make(map[string]float64)
	for name, v := range s.Counters {
		if strings.Contains(name, ".lane.") || strings.Contains(name, ".shed") {
			out[name] = float64(v)
		}
	}
	for name, v := range s.Gauges {
		if strings.Contains(name, ".lane.") {
			out[name] = v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Bundles returns the retained bundles, oldest first.
func (r *Recorder) Bundles() []*Bundle {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Bundle(nil), r.ring...)
}

// Total counts every bundle ever cut; Suppressed counts triggers the rate
// limit swallowed.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

func (r *Recorder) Suppressed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.suppressed
}

// WriteJSON serializes the retained bundles as one indented JSON document —
// the body of GET /flight and of the chaos soak's failure artifacts.
func (r *Recorder) WriteJSON(w io.Writer) error {
	doc := struct {
		Bundles    []*Bundle `json:"bundles"`
		Total      uint64    `json:"total"`
		Suppressed uint64    `json:"suppressed"`
	}{Bundles: r.Bundles(), Total: r.Total(), Suppressed: r.Suppressed()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
