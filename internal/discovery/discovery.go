// Package discovery implements the paper's plug-and-play feature (§3.3):
// service advertisement and lookup in four organizations, matching the
// design space the paper lays out —
//
//   - Centralized: a registry server over any Transport (Server/Client),
//   - Distributed: TTL-bounded query flooding with reverse-path replies
//     (Agent),
//   - Hybrid: replicated registry members with fail-over (discovery/cluster),
//   - Adaptive: picks centralized or distributed per operation from the
//     observed environment — local density and registry health (Adaptive).
//
// Advertisements carry TTL leases; registries expire un-renewed entries so a
// crashed supplier disappears by itself, which is what lets applications
// "adapt as the environment changes".
package discovery

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
)

// Resolver is the uniform discovery API every organization implements —
// centralized client, flood agent, adaptive, the sharded cluster
// resolver, and the lease cache that can wrap any of them. Consumers (core
// bindings, the health watcher, command wiring) depend on nothing more
// concrete than this.
type Resolver interface {
	// Register advertises a service (idempotent on the description key;
	// re-registering renews the lease).
	Register(d *svcdesc.Description) error
	// Unregister withdraws an advertisement by its description key.
	Unregister(key string) error
	// Renew extends an advertisement's lease.
	Renew(key string) error
	// Lookup returns the descriptions matching the query.
	Lookup(q *svcdesc.Query) ([]*svcdesc.Description, error)
	// Close releases the registry's resources.
	Close() error
}

// Invalidator is implemented by resolvers that keep local lookup state (the
// lease cache, and any wrapper forwarding to one). Consumers call it when
// out-of-band evidence — a failure detector suspecting a peer, a rebind away
// from a corpse — says cached results naming that provider are no longer
// trustworthy.
type Invalidator interface {
	// InvalidateProvider drops cached lookup results that include the
	// provider.
	InvalidateProvider(provider string)
}

// Invalidate forwards to r's InvalidateProvider when r caches lookups (it
// is a no-op for cache-less resolvers).
func Invalidate(r Resolver, provider string) {
	if inv, ok := r.(Invalidator); ok {
		inv.InvalidateProvider(provider)
	}
}

// Discovery errors.
var (
	ErrNotFound = errors.New("discovery: no such advertisement")
	ErrClosed   = errors.New("discovery: registry closed")
)

// DefaultTTL is the advertisement lease applied when a description carries
// none.
const DefaultTTL = 30 * time.Second

// storeEntry is one leased advertisement.
type storeEntry struct {
	desc    *svcdesc.Description
	expires time.Time
}

// Store is the in-memory leased advertisement table underlying every
// organization. The zero value is not usable; construct with NewStore.
type Store struct {
	clock      simtime.Clock
	defaultTTL time.Duration

	mu      sync.Mutex
	entries map[string]storeEntry
	// soonest is no later than the earliest expiry held: until the clock
	// passes it no lease can have expired and Sweep has nothing to look for.
	// Register lowers it, a Sweep that scanned recomputes it, and Renew and
	// Unregister leave it low, which costs one scan that finds nothing.
	soonest time.Time
}

var _ Resolver = (*Store)(nil)

// NewStore creates a store expiring entries against the given clock
// (simtime.Real if nil), defaulting leases to defaultTTL (DefaultTTL if 0).
func NewStore(clock simtime.Clock, defaultTTL time.Duration) *Store {
	clock = simtime.OrReal(clock)
	if defaultTTL <= 0 {
		defaultTTL = DefaultTTL
	}
	return &Store{
		clock:      clock,
		defaultTTL: defaultTTL,
		entries:    make(map[string]storeEntry),
	}
}

// Register implements Resolver. The store copies what an in-process caller
// hands it, so the caller may go on changing d; only what its own registry
// server has just decoded does it keep as it is (keep).
func (s *Store) Register(d *svcdesc.Description) error {
	if err := d.Validate(); err != nil {
		return err
	}
	s.keep(d.Clone())
	return nil
}

// keep stores d itself under its key, leased from now. d must be valid and
// referenced by nothing else.
func (s *Store) keep(d *svcdesc.Description) {
	ttl := d.TTL
	if ttl <= 0 {
		ttl = s.defaultTTL
	}
	s.mu.Lock()
	expires := s.clock.Now().Add(ttl)
	if len(s.entries) == 0 || expires.Before(s.soonest) {
		s.soonest = expires
	}
	s.entries[d.Key()] = storeEntry{desc: d, expires: expires}
	s.mu.Unlock()
}

// Unregister implements Resolver.
func (s *Store) Unregister(key string) error {
	s.mu.Lock()
	_, ok := s.entries[key]
	delete(s.entries, key)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return nil
}

// Renew implements Resolver.
func (s *Store) Renew(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || s.clock.Now().After(e.expires) {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	ttl := e.desc.TTL
	if ttl <= 0 {
		ttl = s.defaultTTL
	}
	e.expires = s.clock.Now().Add(ttl)
	s.entries[key] = e
	return nil
}

// Lookup implements Resolver. Expired entries never match.
func (s *Store) Lookup(q *svcdesc.Query) ([]*svcdesc.Description, error) {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for k, e := range s.entries {
		if now.After(e.expires) {
			continue
		}
		if q.Matches(e.desc, now) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]*svcdesc.Description, 0, len(keys))
	for _, k := range keys {
		out = append(out, s.entries[k].desc.Clone())
	}
	return out, nil
}

// Close implements Resolver (a Store holds no external resources).
func (s *Store) Close() error { return nil }

// Sweep removes expired entries and returns how many were removed. Servers
// call it before every request and on a ticker so the table does not
// accumulate dead suppliers; it scans the table only when the clock has
// passed the earliest expiry the table can hold.
func (s *Store) Sweep() int {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !now.After(s.soonest) {
		return 0
	}
	removed := 0
	var soonest time.Time
	for k, e := range s.entries {
		switch {
		case now.After(e.expires):
			delete(s.entries, k)
			removed++
		case soonest.IsZero() || e.expires.Before(soonest):
			soonest = e.expires
		}
	}
	s.soonest = soonest
	return removed
}
