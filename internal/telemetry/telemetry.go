// Package telemetry is the middleware's cluster observability plane: the
// continuous QoS-and-state observation loop the paper's §4 (MiLAN) argues a
// network-centric middleware must run to reconfigure the network around
// application needs.
//
// Each node runs a Publisher that periodically serializes a compact Report —
// the obs.Snapshot delta since its previous report, per-second rates derived
// from that delta, gauge readings, the health monitor's per-peer verdicts,
// and the trace collector's depth — stamped with the node's (possibly
// simulated) clock. Reports ship in-band over the existing endpoint/wire
// layer under the Topic constant: the plane piggybacks on the request/reply
// substrate the way health heartbeats piggyback on discovery, so it costs no
// new protocol.
//
// An Aggregator (in-process, inside ndsm-node, or inside the chaos world)
// ingests reports into per-node, per-metric windowed ring-buffer time
// series, derives freshness (a node silent for longer than StaleAfter is
// stale — the signal the chaos telemetry-freshness invariant asserts), and
// exposes the merged cluster view through webbridge's GET /cluster (JSON)
// and GET /dash (self-contained HTML dashboard).
package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"ndsm/internal/health"
)

// Topic is the endpoint topic telemetry reports ride on. Any node hosting an
// Aggregator registers its Handler here (core.Node.HandleTopic); publishers
// address their reports to it like any other request.
const Topic = "telemetry/report"

// Report is one node's periodic self-description. Counters carry deltas
// since the node's previous report (not absolutes), so aggregators can
// window and rate them without holding per-node baselines; Rates are those
// deltas divided by Elapsed. Time comes from the publisher's injected clock,
// which is what makes simulated-world telemetry deterministic.
type Report struct {
	// Node is the reporting node's name (its transport address).
	Node string `json:"node"`
	// Seq increments per publish; aggregators reject non-increasing
	// sequence numbers, so duplicated or reordered reports cannot corrupt a
	// series.
	Seq uint64 `json:"seq"`
	// Time is the publisher's clock reading at publish.
	Time time.Time `json:"time"`
	// Elapsed is the clock time since the node's previous report (zero on
	// the first).
	Elapsed time.Duration `json:"elapsed"`
	// Counters are deltas since the previous report.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Rates are Counters divided by Elapsed, in events per second.
	Rates map[string]float64 `json:"rates,omitempty"`
	// Gauges are instantaneous readings.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Health is the node's failure-detector view of its peers.
	Health []health.PeerStatus `json:"health,omitempty"`
	// TraceLen, TraceTotal, and TraceDropped describe the node's span
	// collector (zero when the node runs untraced).
	TraceLen     int    `json:"traceLen,omitempty"`
	TraceTotal   uint64 `json:"traceTotal,omitempty"`
	TraceDropped uint64 `json:"traceDropped,omitempty"`
	// TopicDigests carries one serialized histogram of request latency in
	// milliseconds per topic (sketch.DecodeHist), cumulative since the node's
	// recorder started. Unlike Counters these are not deltas: each report
	// ships the whole summary and the aggregator keeps only the newest per
	// node, so a lost report loses nothing. JSON base64-encodes the bytes
	// natively.
	TopicDigests map[string][]byte `json:"topicDigests,omitempty"`
	// TopKDigest is the node's serialized space-saving topic summary
	// (sketch.DecodeTopK), cumulative like TopicDigests.
	TopKDigest []byte `json:"topkDigest,omitempty"`
}

// Encode serializes the report for the wire.
func (r *Report) Encode() ([]byte, error) {
	if r.Node == "" {
		return nil, errors.New("telemetry: report needs a node name")
	}
	return json.Marshal(r)
}

// DecodeReport parses a wire payload back into a report.
func DecodeReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("telemetry: decode report: %w", err)
	}
	if r.Node == "" {
		return nil, errors.New("telemetry: report without a node name")
	}
	return &r, nil
}
