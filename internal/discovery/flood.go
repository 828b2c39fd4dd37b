package discovery

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ndsm/internal/netmux"
	"ndsm/internal/netsim"
	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
	"ndsm/internal/trace"
)

// ProtoDiscovery is the netmux protocol byte of the distributed discovery
// agent.
const ProtoDiscovery byte = 0xD1

// Flood protocol message types.
const (
	floodQuery = "query"
	floodReply = "reply"
)

// floodMsg is the distributed protocol envelope (JSON after the protocol
// byte).
type floodMsg struct {
	Type string `json:"type"`
	// QID identifies a query within its origin.
	QID uint64 `json:"qid,omitempty"`
	// Origin is the querying node.
	Origin string `json:"origin,omitempty"`
	// TTL bounds query propagation in hops.
	TTL int `json:"ttl,omitempty"`
	// Path lists the nodes a query traversed, origin first. Replies walk it
	// backwards.
	Path []string `json:"path,omitempty"`
	// Query is the XML query (query messages).
	Query []byte `json:"query,omitempty"`
	// Matches is the XML service list (reply messages).
	Matches []byte `json:"matches,omitempty"`
	// Trace and Span carry causal trace context across nodes (hex, same
	// format as the endpoint layer's wire headers). The flood protocol has no
	// header map, so the envelope carries them directly; each forwarding hop
	// rewrites Span to its own span so parent links follow the actual path.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
}

// traceContext reads the envelope's causal context (zero when absent).
func (m *floodMsg) traceContext() trace.Context {
	return trace.Context{TraceID: trace.ParseID(m.Trace), SpanID: trace.ParseID(m.Span)}
}

// setTraceContext stamps the envelope with a span's context (no-op for
// invalid contexts, keeping untraced floods byte-identical to before).
func (m *floodMsg) setTraceContext(c trace.Context) {
	if !c.Valid() {
		return
	}
	m.Trace = trace.FormatID(c.TraceID)
	m.Span = trace.FormatID(c.SpanID)
}

func (m *floodMsg) encode() []byte {
	body, err := json.Marshal(m)
	if err != nil {
		// floodMsg contains only marshalable fields; this cannot happen.
		panic(fmt.Sprintf("discovery: encode flood message: %v", err))
	}
	return append([]byte{ProtoDiscovery}, body...)
}

func decodeFloodMsg(data []byte) (*floodMsg, error) {
	if len(data) < 1 || data[0] != ProtoDiscovery {
		return nil, fmt.Errorf("discovery: not a discovery datagram")
	}
	var m floodMsg
	if err := json.Unmarshal(data[1:], &m); err != nil {
		return nil, fmt.Errorf("discovery: decode flood message: %w", err)
	}
	return &m, nil
}

// AgentConfig tunes a distributed discovery agent.
type AgentConfig struct {
	// QueryTTL bounds query flooding in hops (default 8).
	QueryTTL int
	// CollectWindow is how long Lookup gathers replies (default 100ms).
	CollectWindow time.Duration
	// MaxResults ends collection early once this many distinct matches
	// arrived (0: no cap).
	MaxResults int
	// QueryRetry re-issues a query once, halfway through the collect window,
	// when no reply has arrived yet — the flooding organization's parity with
	// the central client's reconnect-and-retry. The retry uses a fresh QID
	// (peers dedup on origin/qid, so re-flooding the old one would die one
	// hop out) aliased to the same pending query.
	QueryRetry bool
	// Clock drives collection windows and lease expiry (default real).
	Clock simtime.Clock
	// Tracer records the agent's lookups and the queries and replies it
	// handles (nil: untraced).
	Tracer *trace.Tracer
}

func (c AgentConfig) withDefaults() AgentConfig {
	if c.QueryTTL <= 0 {
		c.QueryTTL = 8
	}
	if c.CollectWindow <= 0 {
		c.CollectWindow = 100 * time.Millisecond
	}
	c.Clock = simtime.OrReal(c.Clock)
	return c
}

// pendingQuery collects replies for one in-flight lookup.
type pendingQuery struct {
	mu      sync.Mutex
	matches map[string]*svcdesc.Description
	notify  chan struct{} // signaled (capacity 1) on each new batch
}

// Agent is the fully distributed discovery organization: every node answers
// for its own services; queries flood the radio neighbourhood and replies
// return along the reverse path. No infrastructure node exists, so the
// organization survives any single failure — at O(N) query cost.
type Agent struct {
	cfg    AgentConfig
	mux    *netmux.Mux
	local  *Store
	tracer *trace.Tracer
	// metrics is the node's registry (netsim.Network.Metrics): protocol
	// datagrams count there by kind as "discovery.flood.<kind>" (E1/E2's
	// cost metric).
	metrics *obs.Registry

	qid atomic.Uint64

	mu      sync.Mutex
	seen    map[string]bool // "origin/qid" dedup
	pending map[uint64]*pendingQuery
	closed  bool

	stop chan struct{}
	done chan struct{}
}

var _ Resolver = (*Agent)(nil)

// NewAgent starts a discovery agent on the node's mux.
func NewAgent(mux *netmux.Mux, cfg AgentConfig) *Agent {
	cfg = cfg.withDefaults()
	a := &Agent{
		cfg:     cfg,
		mux:     mux,
		local:   NewStore(cfg.Clock, 0),
		tracer:  cfg.Tracer,
		metrics: mux.Network().Metrics(mux.ID()),
		seen:    make(map[string]bool),
		pending: make(map[uint64]*pendingQuery),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go a.loop(mux.Channel(ProtoDiscovery))
	return a
}

// Register implements Resolver: services live in the node's local store.
func (a *Agent) Register(d *svcdesc.Description) error { return a.local.Register(d) }

// Unregister implements Resolver.
func (a *Agent) Unregister(key string) error { return a.local.Unregister(key) }

// Renew implements Resolver.
func (a *Agent) Renew(key string) error { return a.local.Renew(key) }

// Close implements Resolver.
func (a *Agent) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	a.mu.Unlock()
	close(a.stop)
	<-a.done
	return nil
}

// Lookup implements Resolver: local matches are free; the query floods and
// replies are collected for the configured window. When a tracer is installed
// the flood runs under a "flood.lookup" span, with one "flood.round" child per
// query flood (initial plus retry) whose context travels inside the envelope.
func (a *Agent) Lookup(q *svcdesc.Query) (out []*svcdesc.Description, err error) {
	a.mu.Lock()
	closed := a.closed
	a.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}

	results := make(map[string]*svcdesc.Description)
	locals, _ := a.local.Lookup(q)
	for _, d := range locals {
		results[d.Key()] = d
	}

	queryXML, err := svcdesc.MarshalQuery(q)
	if err != nil {
		return nil, err
	}
	if tr := a.tracer; tr != nil {
		sp, done := tr.Scope("flood.lookup")
		sp.SetAttr("service", q.Name)
		defer func() {
			sp.SetError(err)
			done()
		}()
	}
	pq := &pendingQuery{matches: make(map[string]*svcdesc.Description), notify: make(chan struct{}, 1)}
	var qids []uint64
	defer func() {
		a.mu.Lock()
		for _, id := range qids {
			delete(a.pending, id)
		}
		a.mu.Unlock()
	}()
	flood := func() error {
		qid := a.qid.Add(1)
		a.mu.Lock()
		a.pending[qid] = pq
		a.seen[seenKey(string(a.mux.ID()), qid)] = true
		a.mu.Unlock()
		qids = append(qids, qid)
		msg := &floodMsg{
			Type:   floodQuery,
			QID:    qid,
			Origin: string(a.mux.ID()),
			TTL:    a.cfg.QueryTTL,
			Path:   []string{string(a.mux.ID())},
			Query:  queryXML,
		}
		// One child span per flood round; its context rides in the envelope
		// so remote handlers join this trace. Active during the broadcast so
		// the per-hop radio spans nest beneath it.
		rsp := a.tracer.StartSpan("flood.round", trace.Context{})
		rsp.SetAttr("qid", fmt.Sprintf("%d", qid))
		msg.setTraceContext(rsp.Context())
		release := rsp.Activate()
		_, berr := a.mux.Broadcast(msg.encode())
		release()
		rsp.SetError(berr)
		rsp.Finish()
		if berr != nil {
			return fmt.Errorf("discovery: flood query: %w", berr)
		}
		return nil
	}
	if err := flood(); err != nil {
		return nil, err
	}
	a.count("query_sent")

	// The collect window opens now; its timers stop when Lookup returns.
	start := a.cfg.Clock.Now()
	deadline := a.cfg.Clock.Timer(start.Add(a.cfg.CollectWindow))
	defer deadline.Stop()
	var retry <-chan time.Time
	if a.cfg.QueryRetry {
		rt := a.cfg.Clock.Timer(start.Add(a.cfg.CollectWindow / 2))
		defer rt.Stop()
		retry = rt.C()
	}
	for {
		select {
		case <-deadline.C():
			a.harvest(pq, results)
			return mapToSlice(results), nil
		case <-a.stop:
			return nil, ErrClosed
		case <-retry:
			retry = nil
			a.harvest(pq, results)
			if len(results) > 0 {
				continue // something answered; no need to re-flood
			}
			if err := flood(); err != nil {
				continue // the window may still yield replies to the first qid
			}
			a.count("query_retry")
		case <-pq.notify:
			a.harvest(pq, results)
			if a.cfg.MaxResults > 0 && len(results) >= a.cfg.MaxResults {
				return mapToSlice(results), nil
			}
		}
	}
}

// count tallies a protocol event in the node's registry.
func (a *Agent) count(name string) {
	a.metrics.Counter("discovery.flood." + name).Inc(1)
}

func (a *Agent) harvest(pq *pendingQuery, into map[string]*svcdesc.Description) {
	pq.mu.Lock()
	for k, d := range pq.matches {
		into[k] = d
	}
	pq.mu.Unlock()
}

func mapToSlice(m map[string]*svcdesc.Description) []*svcdesc.Description {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic ordering for callers and tests
	out := make([]*svcdesc.Description, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

func seenKey(origin string, qid uint64) string {
	return fmt.Sprintf("%s/%d", origin, qid)
}

func (a *Agent) loop(inbox <-chan netsim.Packet) {
	defer close(a.done)
	for {
		select {
		case <-a.stop:
			return
		case pkt, ok := <-inbox:
			if !ok {
				return
			}
			a.handle(pkt)
		}
	}
}

func (a *Agent) handle(pkt netsim.Packet) {
	msg, err := decodeFloodMsg(pkt.Data)
	if err != nil {
		a.count("garbage")
		return
	}
	switch msg.Type {
	case floodQuery:
		a.handleQuery(msg)
	case floodReply:
		a.handleReply(msg)
	default:
		a.count("garbage")
	}
}

func (a *Agent) handleQuery(msg *floodMsg) {
	a.count("query_recv")
	key := seenKey(msg.Origin, msg.QID)
	a.mu.Lock()
	if a.seen[key] {
		a.mu.Unlock()
		return
	}
	a.seen[key] = true
	a.mu.Unlock()

	// Continue the trace the envelope carries: this node's handling is a
	// child of the sender's span, and stays ambient while we reply and
	// forward so the radio hops nest beneath it. Untraced queries stay
	// untraced — no root span per handled flood.
	var sp *trace.Span
	if ctx := msg.traceContext(); ctx.Valid() {
		sp = a.tracer.StartSpan("flood.handle_query", ctx)
		sp.SetAttr("origin", msg.Origin)
	}
	release := sp.Activate()
	defer func() {
		release()
		sp.Finish()
	}()

	q, err := svcdesc.UnmarshalQuery(msg.Query)
	if err != nil {
		sp.SetError(err)
		return
	}
	if matches, _ := a.local.Lookup(q); len(matches) > 0 {
		payload, err := svcdesc.MarshalDescriptionList(matches)
		if err == nil && len(msg.Path) > 0 {
			reply := &floodMsg{
				Type:    floodReply,
				QID:     msg.QID,
				Origin:  msg.Origin,
				Path:    msg.Path,
				Matches: payload,
			}
			reply.setTraceContext(sp.Context())
			parent := netsim.NodeID(msg.Path[len(msg.Path)-1])
			if err := a.mux.Send(parent, reply.encode()); err == nil {
				a.count("reply_sent")
			}
		}
	}

	if msg.TTL > 1 {
		fwd := *msg
		fwd.TTL--
		fwd.Path = append(append([]string(nil), msg.Path...), string(a.mux.ID()))
		// Re-stamp the forwarded copy so the next hop parents under this
		// node's span, not the origin's — the tree follows the flood path.
		fwd.setTraceContext(sp.Context())
		if _, err := a.mux.Broadcast(fwd.encode()); err == nil {
			a.count("query_fwd")
		}
	}
}

func (a *Agent) handleReply(msg *floodMsg) {
	a.count("reply_recv")
	if len(msg.Path) == 0 || msg.Path[len(msg.Path)-1] != string(a.mux.ID()) {
		return // not addressed to us at this stage
	}
	var sp *trace.Span
	if ctx := msg.traceContext(); ctx.Valid() {
		sp = a.tracer.StartSpan("flood.handle_reply", ctx)
		sp.SetAttr("origin", msg.Origin)
	}
	release := sp.Activate()
	defer func() {
		release()
		sp.Finish()
	}()
	remaining := msg.Path[:len(msg.Path)-1]
	if len(remaining) == 0 {
		// We are the origin: deliver to the pending query.
		a.deliverReply(msg)
		return
	}
	fwd := *msg
	fwd.Path = append([]string(nil), remaining...)
	fwd.setTraceContext(sp.Context())
	next := netsim.NodeID(remaining[len(remaining)-1])
	if err := a.mux.Send(next, fwd.encode()); err == nil {
		a.count("reply_fwd")
	}
}

func (a *Agent) deliverReply(msg *floodMsg) {
	if msg.Origin != string(a.mux.ID()) {
		return
	}
	a.mu.Lock()
	pq := a.pending[msg.QID]
	a.mu.Unlock()
	if pq == nil {
		return // query already completed
	}
	descs, err := svcdesc.UnmarshalDescriptionList(msg.Matches)
	if err != nil {
		return
	}
	pq.mu.Lock()
	for _, d := range descs {
		pq.matches[d.Key()] = d
	}
	pq.mu.Unlock()
	select {
	case pq.notify <- struct{}{}:
	default:
	}
}
