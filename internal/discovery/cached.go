package discovery

import (
	"sync"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
)

// DefaultCacheTTL is the lookup-result lease applied when CacheOptions.TTL
// is zero.
const DefaultCacheTTL = time.Second

// CacheOptions tunes a cached resolver.
type CacheOptions struct {
	// Clock ages cache leases (simtime.Real if nil).
	Clock simtime.Clock
	// TTL is the freshness lease on a cached lookup result: strictly younger
	// than TTL serves locally with no wire traffic; at the boundary (age ==
	// TTL) the entry is no longer fresh. Default DefaultCacheTTL.
	TTL time.Duration
	// StaleFor extends the lease for serve-stale-while-revalidate: a result
	// aged within [TTL, TTL+StaleFor) is still served locally, but a
	// background refresh is kicked off so the next lookup sees fresh data.
	// Beyond the stale window the lookup blocks on the wire. Default TTL.
	StaleFor time.Duration
	// Metrics receives hit/miss/stale/coalesced counters (nil: counted
	// nowhere).
	Metrics *obs.Registry
}

// cacheEntry is one leased lookup result.
type cacheEntry struct {
	descs   []*svcdesc.Description
	fetched time.Time
}

// flight is one in-progress fetch that concurrent identical lookups
// coalesce onto.
type flight struct {
	done  chan struct{}
	descs []*svcdesc.Description
	err   error
}

// Cached wraps any Resolver with a client-side lookup cache under lease:
// steady-state lookups are local hits, a result inside the stale window is
// served immediately while one background fetch revalidates it, and
// concurrent identical lookups coalesce into a single wire call
// (single-flight). Writes pass through and clear the cache; the failure
// detector invalidates by provider through the Invalidator interface.
type Cached struct {
	inner    Resolver
	clock    simtime.Clock
	ttl      time.Duration
	staleFor time.Duration
	metrics  *obs.Registry

	mu      sync.Mutex
	entries map[string]*cacheEntry
	flights map[string]*flight
	closed  bool
}

var (
	_ Resolver    = (*Cached)(nil)
	_ Invalidator = (*Cached)(nil)
)

// NewCached wraps inner with a lookup cache.
func NewCached(inner Resolver, opts CacheOptions) *Cached {
	opts.Clock = simtime.OrReal(opts.Clock)
	if opts.TTL <= 0 {
		opts.TTL = DefaultCacheTTL
	}
	if opts.StaleFor <= 0 {
		opts.StaleFor = opts.TTL
	}
	return &Cached{
		inner:    inner,
		clock:    opts.Clock,
		ttl:      opts.TTL,
		staleFor: opts.StaleFor,
		metrics:  opts.Metrics,
		entries:  make(map[string]*cacheEntry),
		flights:  make(map[string]*flight),
	}
}

// Register implements Resolver, clearing the cache: a local write changes
// what lookups should see, and local writes are rare enough that coherence
// beats hit rate.
func (c *Cached) Register(d *svcdesc.Description) error {
	err := c.inner.Register(d)
	if err == nil {
		c.clear()
	}
	return err
}

// Unregister implements Resolver (clears the cache, like Register).
func (c *Cached) Unregister(key string) error {
	err := c.inner.Unregister(key)
	if err == nil {
		c.clear()
	}
	return err
}

// Renew implements Resolver. A renewal changes no membership, only lease
// bookkeeping, so the cache stays.
func (c *Cached) Renew(key string) error { return c.inner.Renew(key) }

// Lookup implements Resolver.
func (c *Cached) Lookup(q *svcdesc.Query) ([]*svcdesc.Description, error) {
	payload, err := svcdesc.MarshalQuery(q)
	if err != nil {
		return nil, err
	}
	key := string(payload)
	now := c.clock.Now()

	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		age := now.Sub(e.fetched)
		if age < c.ttl {
			descs := cloneDescs(e.descs)
			c.mu.Unlock()
			c.metrics.Counter("discovery.cache.hits").Inc(1)
			return descs, nil
		}
		if age < c.ttl+c.staleFor {
			descs := cloneDescs(e.descs)
			c.revalidateLocked(key, q)
			c.mu.Unlock()
			c.metrics.Counter("discovery.cache.stale_served").Inc(1)
			return descs, nil
		}
	}
	// Miss (or expired past the stale window): fetch through, coalescing
	// onto any identical fetch already in flight.
	if f := c.flights[key]; f != nil {
		c.mu.Unlock()
		c.metrics.Counter("discovery.cache.coalesced").Inc(1)
		<-f.done
		return cloneDescs(f.descs), f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	c.metrics.Counter("discovery.cache.misses").Inc(1)
	c.fetch(key, q, f)
	return cloneDescs(f.descs), f.err
}

// revalidateLocked kicks a background refresh for key unless one is already
// in flight. Caller holds c.mu.
func (c *Cached) revalidateLocked(key string, q *svcdesc.Query) {
	if c.flights[key] != nil || c.closed {
		return
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	qc := cloneQuery(q)
	go func() {
		c.metrics.Counter("discovery.cache.revalidations").Inc(1)
		c.fetch(key, qc, f)
	}()
}

// fetch performs the wire lookup for a flight, installs the result in the
// cache on success, and releases every coalesced waiter.
func (c *Cached) fetch(key string, q *svcdesc.Query, f *flight) {
	descs, err := c.inner.Lookup(q)
	f.descs, f.err = descs, err
	c.mu.Lock()
	if err == nil {
		c.entries[key] = &cacheEntry{descs: cloneDescs(descs), fetched: c.clock.Now()}
		c.metrics.Gauge("discovery.cache.entries").Set(float64(len(c.entries)))
	}
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
}

// InvalidateProvider implements Invalidator: every cached result listing the
// provider is dropped, so the next lookup re-resolves on the wire instead of
// re-serving a suspected corpse for the rest of its lease.
func (c *Cached) InvalidateProvider(provider string) {
	c.mu.Lock()
	dropped := 0
	for key, e := range c.entries {
		for _, d := range e.descs {
			if d != nil && d.Provider == provider {
				delete(c.entries, key)
				dropped++
				break
			}
		}
	}
	if dropped > 0 {
		c.metrics.Gauge("discovery.cache.entries").Set(float64(len(c.entries)))
	}
	c.mu.Unlock()
	if dropped > 0 {
		c.metrics.Counter("discovery.cache.invalidations").Inc(int64(dropped))
	}
}

// clear drops every cached result.
func (c *Cached) clear() {
	c.mu.Lock()
	c.entries = make(map[string]*cacheEntry)
	c.mu.Unlock()
	c.metrics.Gauge("discovery.cache.entries").Set(0)
}

// Close implements Resolver.
func (c *Cached) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.inner.Close()
}

func cloneDescs(in []*svcdesc.Description) []*svcdesc.Description {
	if in == nil {
		return nil
	}
	out := make([]*svcdesc.Description, len(in))
	for i, d := range in {
		out[i] = d.Clone()
	}
	return out
}

func cloneQuery(q *svcdesc.Query) *svcdesc.Query {
	if q == nil {
		return nil
	}
	out := *q
	out.Constraints = append([]svcdesc.Constraint(nil), q.Constraints...)
	out.RequireInterfaces = append([]string(nil), q.RequireInterfaces...)
	if q.Near != nil {
		near := *q.Near
		out.Near = &near
	}
	return &out
}
