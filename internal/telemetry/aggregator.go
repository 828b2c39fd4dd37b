package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ndsm/internal/endpoint"
	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/sketch"
	"ndsm/internal/wire"
)

// AggregatorOptions tunes an Aggregator.
type AggregatorOptions struct {
	// Clock is the aggregator's freshness clock (default real time). It
	// should advance in lockstep with the publishers' clocks — the cluster's
	// shared time discipline, virtual in simulated worlds.
	Clock simtime.Clock
	// StaleAfter marks a node stale when no report has arrived for this
	// long (default 15s — three missed publishes at the default interval).
	StaleAfter time.Duration
	// Registry receives the aggregator's own instruments (nil: counted
	// nowhere): "telemetry.reports" ingested and "telemetry.rejected".
	Registry *obs.Registry
}

func (o AggregatorOptions) withDefaults() AggregatorOptions {
	o.Clock = simtime.OrReal(o.Clock)
	if o.StaleAfter <= 0 {
		o.StaleAfter = 15 * time.Second
	}
	return o
}

// seriesWindow is the point capacity of every aggregator series.
const seriesWindow = 128

// nodeState is everything the aggregator holds for one reporting node.
type nodeState struct {
	lastSeq  uint64
	lastTime time.Time // newest report's own timestamp
	lastSeen time.Time // aggregator clock at newest ingest (freshness basis)
	reports  uint64
	totals   map[string]int64 // cumulative counter totals (sum of deltas)
	series   map[string]*Series
	traceLen int
	traceTot uint64
	traceDrp uint64
	// digests and topk are the node's newest request-analytics sketches,
	// decoded at ingest. Cumulative summaries: the latest report supersedes
	// all earlier ones, so there is nothing to window.
	digests map[string]*sketch.Hist
	topk    *sketch.TopK
}

// Aggregator folds node reports into per-node, per-metric windowed time
// series and derives per-node freshness. It is safe for concurrent use: the
// Handler can ingest from many server goroutines while views are served.
type Aggregator struct {
	opts AggregatorOptions

	ingested *obs.Counter
	rejected *obs.Counter

	mu    sync.Mutex
	nodes map[string]*nodeState
}

// NewAggregator builds an aggregator.
func NewAggregator(opts AggregatorOptions) *Aggregator {
	opts = opts.withDefaults()
	r := opts.Registry
	return &Aggregator{
		opts:     opts,
		ingested: r.Counter("telemetry.reports"),
		rejected: r.Counter("telemetry.rejected"),
		nodes:    make(map[string]*nodeState),
	}
}

// Ingest folds one report in. Reports must arrive with strictly increasing
// sequence numbers and timestamps per node; duplicates, reorders, and
// time-travel are rejected so every stored series stays monotone in the
// publisher's clock.
func (a *Aggregator) Ingest(r *Report) error {
	if r == nil || r.Node == "" {
		a.rejected.Inc(1)
		return fmt.Errorf("telemetry: ingest: report without a node")
	}
	now := a.opts.Clock.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	ns := a.nodes[r.Node]
	if ns != nil {
		if r.Seq <= ns.lastSeq {
			a.rejected.Inc(1)
			return fmt.Errorf("telemetry: ingest %s: seq %d not after %d (duplicate or reorder)", r.Node, r.Seq, ns.lastSeq)
		}
		if !r.Time.After(ns.lastTime) {
			a.rejected.Inc(1)
			return fmt.Errorf("telemetry: ingest %s: time %v not after %v", r.Node, r.Time, ns.lastTime)
		}
	}
	// Decode analytics sketches before mutating any state: a report with a
	// corrupt digest is rejected whole, like one with a bad sequence number.
	var digests map[string]*sketch.Hist
	if len(r.TopicDigests) > 0 {
		digests = make(map[string]*sketch.Hist, len(r.TopicDigests))
		for topic, raw := range r.TopicDigests {
			d, err := sketch.DecodeHist(raw)
			if err != nil {
				a.rejected.Inc(1)
				return fmt.Errorf("telemetry: ingest %s: topic %q digest: %w", r.Node, topic, err)
			}
			digests[topic] = d
		}
	}
	var topk *sketch.TopK
	if len(r.TopKDigest) > 0 {
		tk, err := sketch.DecodeTopK(r.TopKDigest)
		if err != nil {
			a.rejected.Inc(1)
			return fmt.Errorf("telemetry: ingest %s: topk digest: %w", r.Node, err)
		}
		topk = tk
	}
	// A node exists once one of its reports is accepted: a rejected first
	// report leaves nothing behind to be judged stale.
	if ns == nil {
		ns = &nodeState{
			totals: make(map[string]int64),
			series: make(map[string]*Series),
		}
		a.nodes[r.Node] = ns
	}
	ns.lastSeq = r.Seq
	ns.lastTime = r.Time
	ns.lastSeen = now
	ns.reports++
	for name, delta := range r.Counters {
		ns.totals[name] += delta
		a.append(ns, name, r.Time, float64(ns.totals[name]))
	}
	for name, rate := range r.Rates {
		a.append(ns, name+".rate", r.Time, rate)
	}
	for name, v := range r.Gauges {
		a.append(ns, name, r.Time, v)
	}
	ns.traceLen = r.TraceLen
	ns.traceTot = r.TraceTotal
	ns.traceDrp = r.TraceDropped
	if digests != nil {
		ns.digests = digests
	}
	if topk != nil {
		ns.topk = topk
	}
	a.ingested.Inc(1)
	return nil
}

func (a *Aggregator) append(ns *nodeState, name string, t time.Time, v float64) {
	s := ns.series[name]
	if s == nil {
		s = NewSeries(seriesWindow)
		ns.series[name] = s
	}
	s.Append(Point{T: t, V: v})
}

// Handler adapts the aggregator into an endpoint.Handler for Topic, so any
// node's existing listener can host the plane (core.Node.HandleTopic). A
// rejected report answers with an error reply; accepted ones with an ack.
func (a *Aggregator) Handler() endpoint.Handler {
	return func(req *wire.Message) (*wire.Message, error) {
		r, err := DecodeReport(req.Payload)
		if err != nil {
			return nil, err
		}
		if err := a.Ingest(r); err != nil {
			return nil, err
		}
		return &wire.Message{Kind: wire.KindAck}, nil
	}
}

// Fresh reports whether the node's newest report is within StaleAfter of the
// aggregator's clock. Unknown nodes are not fresh.
func (a *Aggregator) Fresh(node string) bool {
	now := a.opts.Clock.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	ns := a.nodes[node]
	return ns != nil && now.Sub(ns.lastSeen) <= a.opts.StaleAfter
}

// Nodes lists known reporting nodes, sorted.
func (a *Aggregator) Nodes() []string {
	a.mu.Lock()
	out := make([]string, 0, len(a.nodes))
	for name := range a.nodes {
		out = append(out, name)
	}
	a.mu.Unlock()
	sort.Strings(out)
	return out
}

// Series returns a copy of one node's series points (nil when absent).
func (a *Aggregator) Series(node, metric string) []Point {
	a.mu.Lock()
	defer a.mu.Unlock()
	ns := a.nodes[node]
	if ns == nil || ns.series[metric] == nil {
		return nil
	}
	return ns.series[metric].Points()
}

// NodeView is one node's slice of the merged cluster view.
type NodeView struct {
	Node       string             `json:"node"`
	Seq        uint64             `json:"seq"`
	Reports    uint64             `json:"reports"`
	LastReport time.Time          `json:"lastReport"`
	Age        time.Duration      `json:"ageNs"`
	Fresh      bool               `json:"fresh"`
	Series     map[string][]Point `json:"series"`
	TraceLen   int                `json:"traceLen,omitempty"`
	TraceTotal uint64             `json:"traceTotal,omitempty"`
	TraceDrops uint64             `json:"traceDropped,omitempty"`
}

// ClusterView is the merged view webbridge serves on GET /cluster.
type ClusterView struct {
	Now        time.Time     `json:"now"`
	StaleAfter time.Duration `json:"staleAfterNs"`
	Nodes      []NodeView    `json:"nodes"`
	// Topics is the cluster-merged per-topic latency attribution (empty when
	// no node publishes request-analytics digests).
	Topics []TopicStat `json:"topics,omitempty"`
	// HotTopics is the cluster-merged heavy-hitter estimate from the nodes'
	// space-saving summaries.
	HotTopics []sketch.TopKEntry `json:"hotTopics,omitempty"`
}

// View snapshots the whole cluster: every node's series (copied), freshness
// verdict and trace depth, sorted by node name.
func (a *Aggregator) View() ClusterView {
	now := a.opts.Clock.Now()
	a.mu.Lock()
	view := ClusterView{Now: now, StaleAfter: a.opts.StaleAfter, Nodes: make([]NodeView, 0, len(a.nodes))}
	for name, ns := range a.nodes {
		nv := NodeView{
			Node:       name,
			Seq:        ns.lastSeq,
			Reports:    ns.reports,
			LastReport: ns.lastTime,
			Age:        now.Sub(ns.lastSeen),
			Fresh:      now.Sub(ns.lastSeen) <= a.opts.StaleAfter,
			Series:     make(map[string][]Point, len(ns.series)),
			TraceLen:   ns.traceLen,
			TraceTotal: ns.traceTot,
			TraceDrops: ns.traceDrp,
		}
		for metric, s := range ns.series {
			nv.Series[metric] = s.Points()
		}
		view.Nodes = append(view.Nodes, nv)
	}
	view.Topics = statsFromDigests(a.mergedDigestsLocked())
	if m := a.mergedTopKLocked(); m != nil {
		view.HotTopics = m.Top(m.Len())
	}
	a.mu.Unlock()
	sort.Slice(view.Nodes, func(i, j int) bool { return view.Nodes[i].Node < view.Nodes[j].Node })
	return view
}
