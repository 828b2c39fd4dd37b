// Package webbridge is the paper's §2 "embedded web server" integration:
// "the use of embedded web servers on small hardware devices may allow
// access to the web's basic functionality — enabling client programs and
// browsers to fetch web pages". The bridge exposes the middleware to plain
// HTTP clients:
//
//	GET /services?name=<pattern>   -> XML <services> list from discovery
//	GET /figure1                   -> the paper's Figure 1 as text
//	POST /call/<service>           -> bind best supplier, forward body,
//	                                  return the reply payload
//	GET /metrics                   -> JSON snapshot of the shared
//	                                  observability registry
//	GET /trace                     -> collected spans as Chrome trace-event
//	                                  JSON (?format=jsonl for JSONL)
//	GET /healthz                   -> liveness, with per-peer failure-detector
//	                                  state when a health monitor is attached
//	GET /cluster                   -> merged telemetry view (JSON per-node
//	                                  time series + freshness) when an
//	                                  aggregator is attached
//	GET /dash                      -> self-contained HTML dashboard over the
//	                                  same view (inline SVG sparklines, no
//	                                  external assets), with an SLO alerts
//	                                  panel when an engine is attached
//	GET /alerts                    -> live SLO alert state (per-instance
//	                                  severity, burn rates) plus a severity
//	                                  summary, when an engine is attached
//	GET /flight                    -> the flight recorder's retained
//	                                  post-mortem bundles, when one is
//	                                  attached
//	GET /requests                  -> retained wide-event records from the
//	                                  request-analytics recorder, filterable
//	                                  by ?topic=&lane=&outcome=&kind=&limit=
//	GET /topk                      -> the recorder's heaviest topics plus
//	                                  per-topic latency quantiles
//	GET /debug/pprof/*             -> Go profiling endpoints, only after an
//	                                  explicit EnablePprof (opt-in: profiles
//	                                  leak internals and burn CPU)
//
// It is a compact http.Handler, so it embeds into any mux; cmd/ndsm-node
// can front a node with it for browser access.
package webbridge

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"ndsm/internal/bibliometrics"
	"ndsm/internal/core"
	"ndsm/internal/discovery"
	"ndsm/internal/flightrec"
	"ndsm/internal/health"
	"ndsm/internal/obs"
	"ndsm/internal/qos"
	"ndsm/internal/reqlog"
	"ndsm/internal/slo"
	"ndsm/internal/svcdesc"
	"ndsm/internal/telemetry"
	"ndsm/internal/trace"
)

// maxCallBody bounds POST /call payloads; a longer body is refused with 413.
const maxCallBody = 1 << 20

// serverConfig is the bridge's one lookup path for every observability
// dependency: handlers take one consistent copy per request via
// Bridge.config, and the Set*/Enable* mutators swap fields under a single
// lock. A source nobody set stays nil: /metrics serves an empty snapshot and
// /trace answers 404.
type serverConfig struct {
	metrics *obs.Registry
	health  *health.Monitor
	spans   *trace.Collector
	agg     *telemetry.Aggregator
	slo     *slo.Engine
	flight  *flightrec.Recorder
	reqlog  *reqlog.Recorder
	// sampleRuntime refreshes the runtime gauges (EnableRuntimeMetrics);
	// /metrics calls it before snapshotting.
	sampleRuntime func()
	pprof         bool
}

// Bridge serves the middleware over HTTP.
type Bridge struct {
	registry discovery.Resolver
	node     *core.Node

	cfgMu sync.RWMutex
	cfg   serverConfig

	mu       sync.Mutex
	bindings map[string]*core.Binding // service name -> cached binding
}

// New creates a bridge. node may be nil, in which case /call is disabled
// (lookup-only bridges suit registry hosts). When node carries a health
// monitor, /healthz reports its per-peer state; attach one explicitly with
// SetHealth otherwise.
func New(registry discovery.Resolver, node *core.Node) *Bridge {
	b := &Bridge{
		registry: registry,
		node:     node,
		bindings: make(map[string]*core.Binding),
	}
	if node != nil {
		b.cfg.health = node.Health()
	}
	return b
}

// config returns the per-request configuration.
func (b *Bridge) config() serverConfig {
	b.cfgMu.RLock()
	defer b.cfgMu.RUnlock()
	return b.cfg
}

// SetMetricsRegistry points /metrics at a registry: the node's, which its
// transport, discovery client and WAL count into as well.
func (b *Bridge) SetMetricsRegistry(r *obs.Registry) {
	b.cfgMu.Lock()
	b.cfg.metrics = r
	b.cfgMu.Unlock()
}

// SetHealth points /healthz at a failure-detector monitor (overriding the
// node's, if any).
func (b *Bridge) SetHealth(m *health.Monitor) {
	b.cfgMu.Lock()
	b.cfg.health = m
	b.cfgMu.Unlock()
}

// SetTraceCollector points /trace at a span collector. Without one, /trace
// answers 404.
func (b *Bridge) SetTraceCollector(c *trace.Collector) {
	b.cfgMu.Lock()
	b.cfg.spans = c
	b.cfgMu.Unlock()
}

// SetAggregator attaches a telemetry aggregator, enabling GET /cluster and
// GET /dash over its merged view.
func (b *Bridge) SetAggregator(a *telemetry.Aggregator) {
	b.cfgMu.Lock()
	b.cfg.agg = a
	b.cfgMu.Unlock()
}

// SetSLO attaches an alerting engine, enabling GET /alerts (live alert
// state), the alerts panel on /dash, and the alert summary in /healthz.
func (b *Bridge) SetSLO(e *slo.Engine) {
	b.cfgMu.Lock()
	b.cfg.slo = e
	b.cfgMu.Unlock()
}

// SetFlightRecorder attaches a flight recorder, enabling GET /flight
// (retained post-mortem bundles).
func (b *Bridge) SetFlightRecorder(r *flightrec.Recorder) {
	b.cfgMu.Lock()
	b.cfg.flight = r
	b.cfgMu.Unlock()
}

// SetReqLog attaches a wide-event recorder, enabling GET /requests (retained
// exemplars, filterable) and GET /topk (heaviest topics with latency
// quantiles).
func (b *Bridge) SetReqLog(r *reqlog.Recorder) {
	b.cfgMu.Lock()
	b.cfg.reqlog = r
	b.cfgMu.Unlock()
}

// EnableRuntimeMetrics registers the Go runtime gauges (goroutines, heap
// bytes, GC pause total) in the bridge's metrics registry and refreshes them
// on every /metrics request, through the registry's one sampler: a program
// that samples the same registry itself shares it (obs.RuntimeGauges).
func (b *Bridge) EnableRuntimeMetrics() {
	b.cfgMu.Lock()
	update := obs.RuntimeGauges(b.cfg.metrics)
	b.cfg.sampleRuntime = update
	b.cfgMu.Unlock()
}

// EnablePprof turns on the /debug/pprof/* endpoints. Off by default: on the
// hardened embedded server, profiling is an operator decision, not a
// default attack surface.
func (b *Bridge) EnablePprof() {
	b.cfgMu.Lock()
	b.cfg.pprof = true
	b.cfgMu.Unlock()
}

var _ http.Handler = (*Bridge)(nil)

// Close releases all cached bindings.
func (b *Bridge) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var firstErr error
	for name, binding := range b.bindings {
		if err := binding.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(b.bindings, name)
	}
	return firstErr
}

// ServeHTTP implements http.Handler.
func (b *Bridge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		b.handleHealthz(w, r)
	case r.URL.Path == "/trace":
		b.handleTrace(w, r)
	case r.URL.Path == "/figure1":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, bibliometrics.Chart(bibliometrics.Figure1(), 50))
	case r.URL.Path == "/metrics":
		b.handleMetrics(w, r)
	case r.URL.Path == "/cluster":
		b.handleCluster(w, r)
	case r.URL.Path == "/dash":
		b.handleDash(w, r)
	case r.URL.Path == "/alerts":
		b.handleAlerts(w, r)
	case r.URL.Path == "/flight":
		b.handleFlight(w, r)
	case r.URL.Path == "/requests":
		b.handleRequests(w, r)
	case r.URL.Path == "/topk":
		b.handleTopK(w, r)
	case r.URL.Path == "/services":
		b.handleServices(w, r)
	case strings.HasPrefix(r.URL.Path, "/call/"):
		b.handleCall(w, r)
	case strings.HasPrefix(r.URL.Path, "/debug/pprof/"):
		b.handlePprof(w, r)
	default:
		http.NotFound(w, r)
	}
}

// handleMetrics serves the observability snapshot: every counter, gauge,
// and histogram the middleware stack registered — transport traffic, netsim
// radio activity, netmux drops, discovery query costs, WAL persistence — in
// one JSON document.
func (b *Bridge) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	c := b.config()
	c.metrics.Counter("webbridge.metrics_requests").Inc(1)
	if c.sampleRuntime != nil {
		c.sampleRuntime()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(c.metrics.Snapshot())
}

// handleCluster serves the telemetry aggregator's merged view: per-node
// windowed time series, per-node freshness and trace depth.
func (b *Bridge) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	c := b.config()
	if c.agg == nil {
		http.Error(w, "telemetry aggregator not attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(c.agg.View())
}

// handleDash serves the single-file HTML dashboard over the same view.
func (b *Bridge) handleDash(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	c := b.config()
	if c.agg == nil {
		http.Error(w, "telemetry aggregator not attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(telemetry.RenderDashAlerts(c.agg.View(), dashAlerts(c.slo)))
}

// dashAlerts flattens the engine's live alert state into the telemetry
// package's neutral dashboard rows (nil engine: no panel).
func dashAlerts(e *slo.Engine) []telemetry.DashAlert {
	if e == nil {
		return nil
	}
	states := e.States()
	out := make([]telemetry.DashAlert, 0, len(states))
	for _, s := range states {
		out = append(out, telemetry.DashAlert{
			Objective: s.Objective,
			Node:      s.Node,
			Severity:  s.Severity.String(),
			Burn:      s.BurnLong,
			Since:     s.Since,
		})
	}
	return out
}

// handleAlerts serves the engine's live alert state: one row per alert
// instance (objective × node) with severity, window burn rates, and the
// severity digest external probes want.
func (b *Bridge) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	c := b.config()
	if c.slo == nil {
		http.Error(w, "slo engine not attached", http.StatusNotFound)
		return
	}
	doc := struct {
		Summary slo.Summary      `json:"summary"`
		Alerts  []slo.AlertState `json:"alerts"`
	}{Summary: c.slo.Summary(), Alerts: c.slo.States()}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// handleFlight serves the flight recorder's retained post-mortem bundles as
// one JSON document.
func (b *Bridge) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	c := b.config()
	if c.flight == nil {
		http.Error(w, "flight recorder not attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = c.flight.WriteJSON(w)
}

// handleRequests serves the wide-event recorder's retained exemplars,
// newest first, filtered by the query parameters the reqlog Filter knows:
// topic, lane, outcome, kind, limit (default 100).
func (b *Bridge) handleRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	c := b.config()
	if c.reqlog == nil {
		http.Error(w, "request analytics not attached", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	f := reqlog.Filter{
		Topic:   q.Get("topic"),
		Lane:    q.Get("lane"),
		Outcome: q.Get("outcome"),
		Kind:    q.Get("kind"),
		Limit:   100,
	}
	if lim := q.Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil || n <= 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		f.Limit = n
	}
	records := c.reqlog.Snapshot(f)
	tail, healthy := c.reqlog.Len()
	doc := struct {
		Records []reqlog.Record `json:"records"`
		Tail    int             `json:"tailRetained"`
		Healthy int             `json:"healthyRetained"`
	}{Records: records, Tail: tail, Healthy: healthy}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// handleTopK serves the recorder's heavy-hitter estimate with each tracked
// topic's local latency quantiles — the single-node attribution answer (the
// cluster-merged one lives in /cluster and /dash via the aggregator).
func (b *Bridge) handleTopK(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	c := b.config()
	if c.reqlog == nil {
		http.Error(w, "request analytics not attached", http.StatusNotFound)
		return
	}
	n := 10
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	type topicRow struct {
		Topic string  `json:"topic"`
		Count uint64  `json:"count"`
		Err   uint64  `json:"err,omitempty"`
		P50   float64 `json:"p50Ms"`
		P99   float64 `json:"p99Ms"`
	}
	entries := c.reqlog.TopK(n)
	rows := make([]topicRow, 0, len(entries))
	for _, e := range entries {
		row := topicRow{Topic: e.Key, Count: e.Count, Err: e.Err}
		if p, ok := c.reqlog.TopicQuantile(e.Key, 0.50); ok {
			row.P50 = p
		}
		if p, ok := c.reqlog.TopicQuantile(e.Key, 0.99); ok {
			row.P99 = p
		}
		rows = append(rows, row)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Topics []topicRow `json:"topics"`
	}{Topics: rows})
}

// handlePprof gates the Go profiling endpoints behind EnablePprof.
func (b *Bridge) handlePprof(w http.ResponseWriter, r *http.Request) {
	if !b.config().pprof {
		http.NotFound(w, r)
		return
	}
	switch r.URL.Path {
	case "/debug/pprof/cmdline":
		pprof.Cmdline(w, r)
	case "/debug/pprof/profile":
		pprof.Profile(w, r)
	case "/debug/pprof/symbol":
		pprof.Symbol(w, r)
	case "/debug/pprof/trace":
		pprof.Trace(w, r)
	default:
		// Index also serves the named profiles (heap, goroutine, ...).
		pprof.Index(w, r)
	}
}

// handleHealthz reports liveness plus, when a health monitor is attached,
// every tracked peer's failure-detector verdict: suspected flag, phi level,
// and circuit-breaker state.
func (b *Bridge) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	type healthDoc struct {
		Status string              `json:"status"`
		Peers  []health.PeerStatus `json:"peers,omitempty"`
		// Alerts is the SLO severity digest — external probes learn "is
		// anything critical" from the same endpoint they already poll,
		// without parsing /alerts.
		Alerts *slo.Summary `json:"alerts,omitempty"`
	}
	doc := healthDoc{Status: "ok"}
	c := b.config()
	if m := c.health; m != nil {
		doc.Peers = m.Status()
	}
	if c.slo != nil {
		sum := c.slo.Summary()
		doc.Alerts = &sum
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// handleTrace serves the collected spans — Chrome trace-event JSON by
// default (load it in chrome://tracing or Perfetto), JSONL with
// ?format=jsonl.
func (b *Bridge) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	col := b.config().spans
	if col == nil {
		http.Error(w, "tracing disabled (no collector)", http.StatusNotFound)
		return
	}
	spans := col.Spans()
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = trace.WriteJSONL(w, spans)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = trace.WriteChromeTrace(w, spans)
}

func (b *Bridge) handleServices(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	q := &svcdesc.Query{Name: r.URL.Query().Get("name")}
	if min := r.URL.Query().Get("minReliability"); min != "" {
		if _, err := fmt.Sscanf(min, "%f", &q.MinReliability); err != nil {
			http.Error(w, "bad minReliability", http.StatusBadRequest)
			return
		}
	}
	descs, err := b.registry.Lookup(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	payload, err := svcdesc.MarshalDescriptionList(descs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	_, _ = w.Write(payload)
}

func (b *Bridge) handleCall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if b.node == nil {
		http.Error(w, "call bridge disabled (no node)", http.StatusNotImplemented)
		return
	}
	service := strings.TrimPrefix(r.URL.Path, "/call/")
	if service == "" {
		http.Error(w, "missing service name", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCallBody))
	if err != nil {
		// A cut body would reach the service as a different request.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("body over %d bytes", maxCallBody), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	binding, err := b.binding(service)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	b.config().metrics.Counter("webbridge.calls").Inc(1)
	out, err := binding.Request(body)
	if err != nil {
		// Drop the cached binding so the next call re-matches from scratch.
		b.evict(service, binding)
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-NDSM-Supplier", binding.Peer())
	_, _ = w.Write(out)
}

// binding returns (creating and caching on demand) a QoS-managed binding for
// the service.
func (b *Bridge) binding(service string) (*core.Binding, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if bd, ok := b.bindings[service]; ok {
		return bd, nil
	}
	bd, err := b.node.Bind(&qos.Spec{Query: svcdesc.Query{Name: service}}, core.BindOptions{})
	if err != nil {
		return nil, err
	}
	b.bindings[service] = bd
	return bd, nil
}

func (b *Bridge) evict(service string, binding *core.Binding) {
	b.mu.Lock()
	if b.bindings[service] == binding {
		delete(b.bindings, service)
	}
	b.mu.Unlock()
	_ = binding.Close()
}

// NewHTTPServer wraps a handler (typically a *Bridge) in an http.Server with
// hardened timeouts: slow-header and slow-body clients cannot pin a
// connection open indefinitely, and idle keep-alives are reaped. The paper's
// embedded-web-server deployments sit on constrained devices where a handful
// of stuck connections is a denial of service; explicit timeouts are the
// standing defence. Callers own Shutdown/Close.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
