package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ndsm/internal/discovery"
	"ndsm/internal/obs"
	"ndsm/internal/svcdesc"
	"ndsm/internal/trace"
	"ndsm/internal/transport"
)

// ResolverOptions configures a cluster-aware client resolver.
type ResolverOptions struct {
	// Members is the registry cluster membership. It must match the
	// members the nodes themselves were built with.
	Members []string
	// ReplicationFactor is the owner-set size R (default
	// DefaultReplicationFactor, clamped to the membership size). It must
	// match the nodes' factor.
	ReplicationFactor int
	// Metrics receives the resolver's instruments and its member clients'
	// (nil: counted nowhere).
	Metrics *obs.Registry
	// Tracer traces the member clients' calls (nil: untraced).
	Tracer *trace.Tracer
}

// Resolver is the cluster-aware client side of the sharded registry: writes
// go to every owner of the key concurrently, in order per owner, and return
// on the first success (anti-entropy repairs the rest); lookups
// scatter-gather the whole membership and succeed once a quorum of N-R+1
// members answered — the smallest responder set guaranteed to intersect
// every key's owner set, so a quorum-complete merge misses nothing.
//
// A Resolver is what consumers wrap in discovery.NewCached: the cache
// absorbs the scatter-gather cost so the steady state is a local hit.
type Resolver struct {
	ring    *Ring
	rf      int
	quorum  int
	tr      transport.Transport
	metrics *obs.Registry
	tracer  *trace.Tracer

	mu          sync.Mutex
	clients     map[string]*discovery.Client
	writes      map[ownerKey]*ownerWrite // see write
	writers     sync.WaitGroup           // one per key in writes
	callTimeout time.Duration
	closed      bool
}

// ownerKey names one owner's copy of one key.
type ownerKey struct{ key, member string }

// ownerWrite is a write waiting for its owner: op, and the channel of every
// fanout its result answers.
type ownerWrite struct {
	op      func(c *discovery.Client) error
	waiters []chan<- error
}

var _ discovery.Resolver = (*Resolver)(nil)

// NewResolver creates a resolver over the given cluster membership.
func NewResolver(tr transport.Transport, opts ResolverOptions) (*Resolver, error) {
	ring := NewRing(opts.Members)
	if ring.Size() == 0 {
		return nil, fmt.Errorf("cluster: resolver needs at least one member")
	}
	rf := opts.ReplicationFactor
	if rf <= 0 {
		rf = DefaultReplicationFactor
	}
	if rf > ring.Size() {
		rf = ring.Size()
	}
	return &Resolver{
		ring:    ring,
		rf:      rf,
		quorum:  ring.Size() - rf + 1,
		tr:      tr,
		metrics: opts.Metrics,
		tracer:  opts.Tracer,
		clients: make(map[string]*discovery.Client),
		writes:  make(map[ownerKey]*ownerWrite),
	}, nil
}

// SetCallTimeout bounds each member call (see discovery.Client.SetCallTimeout).
func (r *Resolver) SetCallTimeout(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.callTimeout = d
	for _, c := range r.clients {
		c.SetCallTimeout(d)
	}
}

// client returns (creating lazily) the member's registry client.
func (r *Resolver) client(member string) (*discovery.Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, discovery.ErrClosed
	}
	return r.clientLocked(member), nil
}

// clientLocked is client for a write already accepted: Close waits for it
// before it closes the clients, so it may still run after Close began.
func (r *Resolver) clientLocked(member string) *discovery.Client {
	if c := r.clients[member]; c != nil {
		return c
	}
	c := discovery.NewInstrumentedClient(r.tr, member, r.metrics, r.tracer)
	if r.callTimeout > 0 {
		c.SetCallTimeout(r.callTimeout)
	}
	r.clients[member] = c
	return c
}

// fanout writes op to every owner of key concurrently and returns on the
// first success; the other owners' copies finish in the background, and
// Close waits for them. With all owners down it returns the first error.
func (r *Resolver) fanout(key string, op func(c *discovery.Client) error) error {
	owners := r.ring.Owners(key, r.rf)
	errc := make(chan error, len(owners))
	for _, m := range owners {
		r.write(ownerKey{key, m}, op, errc)
	}
	var firstErr error
	for range owners {
		err := <-errc
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// write sends op to one owner after every earlier write of this resolver to
// that owner's copy of the key, and answers on errc. Unordered, a straggling
// Register could land after the Unregister that followed it, take a later
// Lamport sequence, and be spread back by anti-entropy. A write that finds
// another already queued replaces it and inherits its waiters: only the
// newest write decides the copy, so a slow owner holds one in-flight and one
// queued write per key however often leases are renewed.
func (r *Resolver) write(k ownerKey, op func(c *discovery.Client) error, errc chan<- error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		errc <- discovery.ErrClosed
		return
	}
	w := &ownerWrite{op: op, waiters: []chan<- error{errc}}
	if queued, busy := r.writes[k]; busy {
		if queued != nil {
			w.waiters = append(queued.waiters, errc)
		}
		r.writes[k] = w
		r.mu.Unlock()
		return
	}
	r.writes[k] = nil
	r.writers.Add(1)
	r.mu.Unlock()
	go r.drain(k, w)
}

// drain runs one owner's writes to one key in order until none is queued.
func (r *Resolver) drain(k ownerKey, w *ownerWrite) {
	defer r.writers.Done()
	for w != nil {
		r.mu.Lock()
		c := r.clientLocked(k.member)
		r.mu.Unlock()
		err := w.op(c)
		for _, errc := range w.waiters {
			errc <- err
		}
		r.mu.Lock()
		if w = r.writes[k]; w != nil {
			r.writes[k] = nil
		} else {
			delete(r.writes, k)
		}
		r.mu.Unlock()
	}
}

// Register implements discovery.Resolver: the advertisement is written to
// every owner of its key.
func (r *Resolver) Register(d *svcdesc.Description) error {
	if err := d.Validate(); err != nil {
		return err
	}
	return r.fanout(d.Key(), func(c *discovery.Client) error { return c.Register(d) })
}

// Unregister implements discovery.Resolver.
func (r *Resolver) Unregister(key string) error {
	return r.fanout(key, func(c *discovery.Client) error { return c.Unregister(key) })
}

// Renew implements discovery.Resolver.
func (r *Resolver) Renew(key string) error {
	return r.fanout(key, func(c *discovery.Client) error { return c.Renew(key) })
}

// Lookup implements discovery.Resolver: every member is queried
// concurrently and the call returns as soon as a responder quorum has
// answered, merged and deduplicated by description key. Below quorum the
// merge could silently miss keys whose owners were all unreachable, so it
// fails instead.
func (r *Resolver) Lookup(q *svcdesc.Query) ([]*svcdesc.Description, error) {
	r.metrics.Counter("discovery.cluster.resolver.lookups").Inc(1)
	members := r.ring.Members()
	type result struct {
		descs []*svcdesc.Description
		err   error
	}
	resc := make(chan result, len(members))
	for _, m := range members {
		m := m
		go func() {
			c, err := r.client(m)
			var descs []*svcdesc.Description
			if err == nil {
				descs, err = c.Lookup(q)
			}
			resc <- result{descs: descs, err: err}
		}()
	}
	merged := make(map[string]*svcdesc.Description)
	successes := 0
	var firstErr error
	for range members {
		res := <-resc
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		successes++
		for _, d := range res.descs {
			if _, ok := merged[d.Key()]; !ok {
				merged[d.Key()] = d
			}
		}
		if successes >= r.quorum {
			keys := make([]string, 0, len(merged))
			for k := range merged {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			out := make([]*svcdesc.Description, 0, len(keys))
			for _, k := range keys {
				out = append(out, merged[k])
			}
			return out, nil
		}
	}
	r.metrics.Counter("discovery.cluster.resolver.quorum_failures").Inc(1)
	if firstErr == nil {
		firstErr = discovery.ErrClosed
	}
	return nil, fmt.Errorf("cluster: lookup quorum %d/%d members: %w",
		successes, r.quorum, firstErr)
}

// Close implements discovery.Resolver: it waits for the owner writes in
// flight, then closes every member client.
func (r *Resolver) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	r.writers.Wait()
	r.mu.Lock()
	clients := make([]*discovery.Client, 0, len(r.clients))
	for _, c := range r.clients {
		clients = append(clients, c)
	}
	r.clients = make(map[string]*discovery.Client)
	r.mu.Unlock()
	var firstErr error
	for _, c := range clients {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
