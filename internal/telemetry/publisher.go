package telemetry

import (
	"errors"
	"sync"
	"time"

	"ndsm/internal/endpoint"
	"ndsm/internal/obs"
	"ndsm/internal/reqlog"
	"ndsm/internal/simtime"
	"ndsm/internal/trace"
)

// PublisherOptions assembles a Publisher.
type PublisherOptions struct {
	// Node names the reporting node (required).
	Node string
	// Registry is the node's metrics registry (nil: reports carry none).
	// Each publish diffs it against the previous publish's snapshot, so
	// reports carry deltas.
	Registry *obs.Registry
	// Spans, when set, embeds the node's trace-collector depth.
	Spans *trace.Collector
	// ReqLog, when set, embeds the node's request-analytics sketches — the
	// per-topic latency histograms and the topic top-k summary — in every
	// report, so the aggregator can merge cluster-wide per-topic quantiles
	// and heavy hitters (see reqlog and sketch).
	ReqLog *reqlog.Recorder
	// Clock stamps reports and paces Start's loop (default real time; a
	// *simtime.Virtual makes simulated-world telemetry deterministic).
	Clock simtime.Clock
	// Interval is Start's publish cadence (default 5s). Synchronous
	// Publish callers can ignore it.
	Interval time.Duration
	// Send ships one encoded report (required): in production a
	// CallerSend over the node's transport, in tests anything.
	Send func(*Report) error
}

// Publisher periodically describes one node as a Report and ships it through
// its Send hook. Publishing is entirely out-of-band: nothing on the node's
// request path knows the publisher exists, which is what keeps the
// telemetry-off hot path allocation-identical (see the zero-alloc guard).
type Publisher struct {
	opts PublisherOptions

	mu       sync.Mutex
	seq      uint64
	prev     obs.Snapshot
	prevTime time.Time
	loop     *simtime.Loop // Start's, nil until then
	closed   bool
}

// NewPublisher builds a publisher. It snapshots the registry immediately so
// the first Publish reports the delta since construction, not since process
// start.
func NewPublisher(opts PublisherOptions) (*Publisher, error) {
	if opts.Node == "" {
		return nil, errors.New("telemetry: publisher needs a node name")
	}
	if opts.Send == nil {
		return nil, errors.New("telemetry: publisher needs a send hook")
	}
	opts.Clock = simtime.OrReal(opts.Clock)
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Second
	}
	p := &Publisher{opts: opts}
	p.prev = opts.Registry.Snapshot()
	p.prevTime = opts.Clock.Now()
	return p, nil
}

// Publish builds one report — snapshot delta, rates, trace depth, sketches —
// and ships it synchronously through Send. Safe for concurrent use with a
// running Start loop; each report consumes the delta exactly once.
func (p *Publisher) Publish() error {
	p.mu.Lock()
	now := p.opts.Clock.Now()
	snap := p.opts.Registry.Snapshot()
	diff := snap.Diff(p.prev)
	elapsed := now.Sub(p.prevTime)
	p.seq++
	r := &Report{
		Node:     p.opts.Node,
		Seq:      p.seq,
		Time:     now,
		Elapsed:  elapsed,
		Counters: diff.Counters,
		Rates:    diff.Rate(elapsed),
		Gauges:   diff.Gauges,
	}
	// Fold histogram quantiles in as gauges (<hist>.p50/.p99): quantile
	// estimates do not survive delta arithmetic, but as published gauge
	// series they give the dash and the SLO engine's KindThreshold
	// objectives a per-node latency signal. (KindQuantile objectives read
	// Aggregator.TopicQuantile, the cluster merge of TopicDigests.)
	for name, h := range snap.Histograms {
		if h.Count == 0 {
			continue
		}
		if r.Gauges == nil {
			r.Gauges = make(map[string]float64, 2*len(snap.Histograms))
		}
		r.Gauges[name+".p50"] = h.P50
		r.Gauges[name+".p99"] = h.P99
	}
	if c := p.opts.Spans; c != nil {
		r.TraceLen = c.Len()
		r.TraceTotal = c.Total()
		r.TraceDropped = c.Dropped()
	}
	if rec := p.opts.ReqLog; rec != nil {
		r.TopicDigests = rec.TopicDigests()
		r.TopKDigest = rec.TopKBinary()
	}
	p.prev = snap
	p.prevTime = now
	p.mu.Unlock()
	return p.opts.Send(r)
}

// Start launches the periodic publish loop on the publisher's clock. Send
// errors are swallowed: telemetry is best-effort by design — a partitioned
// node keeps trying, and the aggregator's staleness marking is the signal.
func (p *Publisher) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.loop != nil {
		return
	}
	p.loop = simtime.Every(p.opts.Clock, p.opts.Interval, func() { _ = p.Publish() })
}

// Close stops the Start loop (if running) and marks the publisher done.
func (p *Publisher) Close() error {
	p.mu.Lock()
	p.closed = true
	loop := p.loop
	p.mu.Unlock()
	loop.Stop()
	return nil
}

// CallerSend adapts an endpoint.Caller into a Publisher Send hook: each
// report is encoded and shipped as one request on Topic — in-band over
// whatever transport the caller already runs on. timeout bounds each send
// (default 2s) so a partitioned aggregator cannot wedge the publish loop.
func CallerSend(c *endpoint.Caller, src, dst string, timeout time.Duration) func(*Report) error {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return func(r *Report) error {
		payload, err := r.Encode()
		if err != nil {
			return err
		}
		_, err = c.Do(&endpoint.Call{
			Topic:   Topic,
			Src:     src,
			Dst:     dst,
			Payload: payload,
			Timeout: timeout,
		})
		return err
	}
}
