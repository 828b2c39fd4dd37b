package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ndsm/internal/discovery"
	"ndsm/internal/endpoint"
	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/trace"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// Gossip protocol topics, served on the same listener as the registry
// protocol: a member is one port, one endpoint server.
const (
	TopicGossipDigest = "disc.gossip.digest"
	TopicGossipDelta  = "disc.gossip.delta"
)

// DefaultReplicationFactor is the owner-set size R when unspecified.
const DefaultReplicationFactor = 2

// DefaultGossipTimeout bounds one gossip exchange on the wire (wall time —
// gossip is data-path traffic, like every other endpoint call).
const DefaultGossipTimeout = 2 * time.Second

// NodeOptions assembles one registry-cluster member.
type NodeOptions struct {
	// Self is this member's transport address; it must appear in Members.
	Self string
	// Members is the full cluster membership (self included).
	Members []string
	// ReplicationFactor is the owner-set size R (default
	// DefaultReplicationFactor, clamped to the membership size).
	ReplicationFactor int
	// Clock times leases, the sync loop, and the sweep ticker (default
	// real).
	Clock simtime.Clock
	// DefaultTTL is the advertisement lease applied when a description
	// carries none (default discovery.DefaultTTL).
	DefaultTTL time.Duration
	// SyncEvery is the anti-entropy period: each interval the member
	// push-pull exchanges with the next peer in round-robin order. Zero
	// disables the background loop — the owner drives SyncNow explicitly
	// (how deterministic simulations schedule gossip).
	SyncEvery time.Duration
	// SweepEvery drives lease expiry from the server's ticker (zero: sweep
	// only on request arrival).
	SweepEvery time.Duration
	// GossipTimeout bounds one gossip exchange (default
	// DefaultGossipTimeout).
	GossipTimeout time.Duration
	// Metrics receives the member's instruments (nil: counted nowhere).
	Metrics *obs.Registry
	// Tracer records the member's server spans (nil: none).
	Tracer *trace.Tracer
}

// Node is one registry-cluster member: the replicated shard table served
// over the standard registry protocol, plus the gossip half that keeps the
// R owner copies of every key converging.
type Node struct {
	self    string
	ring    *Ring
	rf      int
	table   *Table
	srv     *discovery.Server
	tr      transport.Transport
	clock   simtime.Clock
	timeout time.Duration
	metrics *obs.Registry
	peers   []string // members minus self, canonical order

	mu       sync.Mutex
	callers  map[string]*endpoint.Caller
	nextPeer int
	lastSync time.Time
	closed   bool

	syncRounds *simtime.Loop // anti-entropy, nil without SyncEvery or peers
}

// NewNode starts a cluster member serving on l over tr (tr also carries its
// outbound gossip).
func NewNode(tr transport.Transport, l transport.Listener, opts NodeOptions) (*Node, error) {
	if opts.Self == "" {
		return nil, errors.New("cluster: node needs a Self address")
	}
	ring := NewRing(opts.Members)
	selfIncluded := false
	for _, m := range ring.Members() {
		if m == opts.Self {
			selfIncluded = true
			break
		}
	}
	if !selfIncluded {
		return nil, fmt.Errorf("cluster: self %q not in members %v", opts.Self, opts.Members)
	}
	rf := opts.ReplicationFactor
	if rf <= 0 {
		rf = DefaultReplicationFactor
	}
	if rf > ring.Size() {
		rf = ring.Size()
	}
	opts.Clock = simtime.OrReal(opts.Clock)
	if opts.GossipTimeout <= 0 {
		opts.GossipTimeout = DefaultGossipTimeout
	}
	n := &Node{
		self:    opts.Self,
		ring:    ring,
		rf:      rf,
		table:   NewTable(opts.Self, opts.Clock, opts.DefaultTTL),
		tr:      tr,
		clock:   opts.Clock,
		timeout: opts.GossipTimeout,
		metrics: opts.Metrics,
		callers: make(map[string]*endpoint.Caller),
	}
	for _, m := range ring.Members() {
		if m != opts.Self {
			n.peers = append(n.peers, m)
		}
	}
	n.srv = discovery.NewResolverServer(n.table, l, discovery.ServerOptions{
		Clock:      opts.Clock,
		SweepEvery: opts.SweepEvery,
		Metrics:    opts.Metrics,
		Tracer:     opts.Tracer,
	})
	n.srv.Handle(TopicGossipDigest, n.handleDigest)
	n.srv.Handle(TopicGossipDelta, n.handleDelta)
	if opts.SyncEvery > 0 && len(n.peers) > 0 {
		n.syncRounds = simtime.Every(n.clock, opts.SyncEvery, func() { _ = n.SyncNow() })
	}
	return n, nil
}

// Self returns the member's address.
func (n *Node) Self() string { return n.self }

// Table exposes the member's replicated table (simulations and invariant
// checkers introspect replication through it).
func (n *Node) Table() *Table { return n.table }

// Ring exposes the member's placement ring.
func (n *Node) Ring() *Ring { return n.ring }

// ownsSelf reports whether this member owns key.
func (n *Node) ownsSelf(key string) bool { return n.ring.Owns(n.self, key, n.rf) }

// caller returns (creating lazily) the redial-safe caller to a peer.
func (n *Node) caller(peer string) (*endpoint.Caller, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, discovery.ErrClosed
	}
	if c := n.callers[peer]; c != nil {
		return c, nil
	}
	c, err := endpoint.NewCaller(n.tr, peer, endpoint.CallerOptions{
		Redial: true,
		Interceptors: []endpoint.ClientInterceptor{
			// One redial-and-retry on connection-level failures, like the
			// registry client: a peer restart tears the old connection down
			// and the round should survive it. Timeouts are not retried —
			// against a dead peer that would double every round's stall.
			endpoint.WithRetry(false, nil, "cluster.gossip"),
		},
	})
	if err != nil {
		return nil, err
	}
	n.callers[peer] = c
	return c, nil
}

// SyncNow runs one anti-entropy round with the next peer in round-robin
// order. It returns the first wire error; a dead peer is an error the next
// round routes past, not a stall.
func (n *Node) SyncNow() error {
	if len(n.peers) == 0 {
		return nil
	}
	n.mu.Lock()
	peer := n.peers[n.nextPeer%len(n.peers)]
	n.nextPeer++
	n.mu.Unlock()
	return n.SyncWith(peer)
}

// SyncWith runs one push-pull anti-entropy round with the given peer:
// digest out, delta back (applied), and a second delta out for whatever the
// peer asked for.
func (n *Node) SyncWith(peer string) error {
	c, err := n.caller(peer)
	if err != nil {
		return err
	}
	n.metrics.Counter("discovery.cluster.gossip.rounds").Inc(1)
	reply, err := c.Do(&endpoint.Call{
		Kind:    wire.KindControl,
		Topic:   TopicGossipDigest,
		Payload: AppendDigest(nil, n.table.digest(n.self)),
		Timeout: n.timeout,
	})
	if err != nil {
		n.metrics.Counter("discovery.cluster.gossip.errors").Inc(1)
		return fmt.Errorf("cluster: sync %s: %w", peer, err)
	}
	delta, err := DecodeDelta(reply.Payload)
	if err != nil {
		n.metrics.Counter("discovery.cluster.gossip.errors").Inc(1)
		return fmt.Errorf("cluster: sync %s: %w", peer, err)
	}
	if applied := n.table.apply(delta.Entries, n.ownsSelf); applied > 0 {
		n.metrics.Counter("discovery.cluster.gossip.deltas_applied").Inc(int64(applied))
	}
	if len(delta.Want) > 0 {
		push := n.table.deltaFor(n.self, delta.Want)
		ack, err := c.Do(&endpoint.Call{
			Kind:    wire.KindControl,
			Topic:   TopicGossipDelta,
			Payload: AppendDelta(nil, push),
			Timeout: n.timeout,
		})
		wire.Recycle(ack) // nothing of an acknowledgement is kept
		if err != nil {
			n.metrics.Counter("discovery.cluster.gossip.errors").Inc(1)
			return fmt.Errorf("cluster: sync push %s: %w", peer, err)
		}
	}
	n.observeSync()
	return nil
}

// observeSync records anti-entropy health: the achieved gap between
// successful rounds (the replication-lag bound) and the shard's size.
func (n *Node) observeSync() {
	now := n.clock.Now()
	n.mu.Lock()
	last := n.lastSync
	n.lastSync = now
	n.mu.Unlock()
	if !last.IsZero() {
		n.metrics.Gauge("discovery.cluster.gossip.lag_ms").Set(
			float64(now.Sub(last)) / float64(time.Millisecond))
	}
	live, tombs := n.table.counts()
	n.metrics.Gauge("discovery.cluster.entries").Set(float64(live))
	n.metrics.Gauge("discovery.cluster.tombstones").Set(float64(tombs))
}

// handleDigest answers a peer's anti-entropy opener: push what the peer is
// missing on its owner set, ask for what we are missing on ours.
func (n *Node) handleDigest(req *wire.Message) (*wire.Message, error) {
	dig, err := DecodeDigest(req.Payload)
	if err != nil {
		return nil, err
	}
	peerOwns := func(key string) bool { return n.ring.Owns(dig.From, key, n.rf) }
	delta := n.table.diff(n.self, dig, peerOwns, n.ownsSelf)
	return &wire.Message{Kind: wire.KindReply, Payload: AppendDelta(nil, delta)}, nil
}

// handleDelta applies a peer's pushed entries (the pull half landing).
func (n *Node) handleDelta(req *wire.Message) (*wire.Message, error) {
	delta, err := DecodeDelta(req.Payload)
	if err != nil {
		return nil, err
	}
	if applied := n.table.apply(delta.Entries, n.ownsSelf); applied > 0 {
		n.metrics.Counter("discovery.cluster.gossip.deltas_applied").Inc(int64(applied))
	}
	return &wire.Message{Kind: wire.KindAck}, nil
}

// Close stops the sync loop, the gossip callers, and the server.
func (n *Node) Close() error {
	n.syncRounds.Stop()
	n.mu.Lock()
	n.closed = true
	callers := make([]*endpoint.Caller, 0, len(n.callers))
	for _, c := range n.callers {
		callers = append(callers, c)
	}
	n.callers = make(map[string]*endpoint.Caller)
	n.mu.Unlock()
	for _, c := range callers {
		_ = c.Close()
	}
	return n.srv.Close()
}
