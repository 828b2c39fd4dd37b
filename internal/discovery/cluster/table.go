package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ndsm/internal/discovery"
	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
)

// DefaultTombstoneTTL is how long an unregister tombstone is kept for
// anti-entropy to propagate before it is swept.
const DefaultTombstoneTTL = 30 * time.Second

// replEntry is one replicated advertisement (or its tombstone).
type replEntry struct {
	desc    *svcdesc.Description // nil for tombstones
	seq     uint64
	origin  string // member that performed the write (LWW tie-break)
	deleted bool
	expires time.Time
}

// newer reports whether (seq, origin) orders a after b — the last-writer-wins
// rule. Sequence numbers are Lamport-style (each member's counter advances
// past every sequence it has seen), so a genuinely later write has a larger
// seq; concurrent writes with equal seq break the tie on the origin member
// name, which every replica orders identically, so all copies converge.
func newer(aSeq uint64, aOrigin string, b *replEntry) bool {
	if aSeq != b.seq {
		return aSeq > b.seq
	}
	return aOrigin > b.origin
}

// Table is one member's replicated lease table: the LWW-converging state
// anti-entropy exchanges. It implements discovery.Resolver (so a registry
// Server can expose it on the wire unchanged) plus the gossip bookkeeping —
// Lamport sequence assignment, tombstones, and digest/delta construction.
type Table struct {
	self       string
	clock      simtime.Clock
	defaultTTL time.Duration

	mu      sync.Mutex
	entries map[string]*replEntry
	lamport uint64
}

var (
	_ discovery.Resolver = (*Table)(nil)
	_ discovery.Sweeper  = (*Table)(nil)
)

// NewTable creates the member's table. self names this member in LWW
// tie-breaks; clock defaults to simtime.Real; defaultTTL to
// discovery.DefaultTTL. Tombstones live DefaultTombstoneTTL.
func NewTable(self string, clock simtime.Clock, defaultTTL time.Duration) *Table {
	clock = simtime.OrReal(clock)
	if defaultTTL <= 0 {
		defaultTTL = discovery.DefaultTTL
	}
	return &Table{
		self:       self,
		clock:      clock,
		defaultTTL: defaultTTL,
		entries:    make(map[string]*replEntry),
	}
}

// nextSeqLocked assigns the next local write sequence.
func (t *Table) nextSeqLocked() uint64 {
	t.lamport++
	return t.lamport
}

// observeSeqLocked advances the Lamport counter past a remote sequence.
func (t *Table) observeSeqLocked(seq uint64) {
	if seq > t.lamport {
		t.lamport = seq
	}
}

// Register implements discovery.Resolver. A re-register overwrites any
// tombstone: the service is back.
func (t *Table) Register(d *svcdesc.Description) error {
	if err := d.Validate(); err != nil {
		return err
	}
	ttl := d.TTL
	if ttl <= 0 {
		ttl = t.defaultTTL
	}
	d = d.Clone()
	t.mu.Lock()
	t.entries[d.Key()] = &replEntry{
		desc:    d,
		seq:     t.nextSeqLocked(),
		origin:  t.self,
		expires: t.clock.Now().Add(ttl),
	}
	t.mu.Unlock()
	return nil
}

// Unregister implements discovery.Resolver, writing a tombstone so the
// deletion wins anti-entropy against still-replicating copies instead of
// being resurrected by them.
func (t *Table) Unregister(key string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[key]
	if !ok || e.deleted || t.clock.Now().After(e.expires) {
		return fmt.Errorf("%w: %s", discovery.ErrNotFound, key)
	}
	t.entries[key] = &replEntry{
		seq:     t.nextSeqLocked(),
		origin:  t.self,
		deleted: true,
		expires: t.clock.Now().Add(DefaultTombstoneTTL),
	}
	return nil
}

// Renew implements discovery.Resolver. The renewal bumps the entry's
// sequence so the extended lease propagates to the other owners.
func (t *Table) Renew(key string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[key]
	if !ok || e.deleted || t.clock.Now().After(e.expires) {
		return fmt.Errorf("%w: %s", discovery.ErrNotFound, key)
	}
	ttl := e.desc.TTL
	if ttl <= 0 {
		ttl = t.defaultTTL
	}
	e.seq = t.nextSeqLocked()
	e.origin = t.self
	e.expires = t.clock.Now().Add(ttl)
	return nil
}

// Lookup implements discovery.Resolver over this member's shard. Expired
// entries and tombstones never match.
func (t *Table) Lookup(q *svcdesc.Query) ([]*svcdesc.Description, error) {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var keys []string
	for k, e := range t.entries {
		if e.deleted || now.After(e.expires) {
			continue
		}
		if q.Matches(e.desc, now) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]*svcdesc.Description, 0, len(keys))
	for _, k := range keys {
		out = append(out, t.entries[k].desc.Clone())
	}
	return out, nil
}

// Close implements discovery.Resolver (a Table holds no external resources).
func (t *Table) Close() error { return nil }

// Sweep implements discovery.Sweeper: expired leases and expired tombstones
// are removed. Expiry needs no tombstone of its own — every replica ages the
// lease on its own clock (deltas carry remaining TTL), so copies die out
// independently.
func (t *Table) Sweep() int {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	removed := 0
	for k, e := range t.entries {
		if now.After(e.expires) {
			delete(t.entries, k)
			removed++
		}
	}
	return removed
}

// LiveKeys returns the keys of unexpired, non-tombstone entries, sorted.
func (t *Table) LiveKeys() []string {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var keys []string
	for k, e := range t.entries {
		if !e.deleted && !now.After(e.expires) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// HasLive reports whether the key is present, live, and unexpired.
func (t *Table) HasLive(key string) bool {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[key]
	return ok && !e.deleted && !now.After(e.expires)
}

// counts returns (live, tombstone) entry counts.
func (t *Table) counts() (int, int) {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	live, tombs := 0, 0
	for _, e := range t.entries {
		if now.After(e.expires) {
			continue
		}
		if e.deleted {
			tombs++
		} else {
			live++
		}
	}
	return live, tombs
}

// digest summarizes the whole table (tombstones included — a peer must learn
// deletions too).
func (t *Table) digest(from string) *Digest {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := &Digest{From: from, Entries: make([]DigestEntry, 0, len(t.entries))}
	for k, e := range t.entries {
		d.Entries = append(d.Entries, DigestEntry{Key: k, Seq: e.seq, Origin: e.origin})
	}
	sort.Slice(d.Entries, func(i, j int) bool { return d.Entries[i].Key < d.Entries[j].Key })
	return d
}

// deltaEntryLocked encodes one entry for the wire. Caller holds t.mu.
func (t *Table) deltaEntryLocked(key string, e *replEntry, now time.Time) (DeltaEntry, bool) {
	out := DeltaEntry{Key: key, Seq: e.seq, Origin: e.origin, Deleted: e.deleted}
	ttl := e.expires.Sub(now)
	if ttl <= 0 {
		return out, false // expired while queued; let it die quietly
	}
	out.TTLMillis = uint64(ttl / time.Millisecond)
	if out.TTLMillis == 0 {
		out.TTLMillis = 1
	}
	if !e.deleted {
		payload, err := svcdesc.MarshalDescription(e.desc)
		if err != nil {
			return out, false
		}
		out.Desc = payload
	}
	return out, true
}

// deltaFor collects the entries named by keys (skipping any that expired or
// vanished meanwhile).
func (t *Table) deltaFor(from string, keys []string) *Delta {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	d := &Delta{From: from}
	for _, k := range keys {
		e, ok := t.entries[k]
		if !ok {
			continue
		}
		if de, ok := t.deltaEntryLocked(k, e, now); ok {
			d.Entries = append(d.Entries, de)
		}
	}
	return d
}

// diff compares the table against a peer's digest, restricted by ownership:
// owns(key) reports whether the PEER owns a key (entries it should receive
// and entries it is entitled to ask for live on its owner set, not ours).
// It returns the entries the peer is missing or holds stale, and the keys we
// hold stale or miss entirely — the push and pull halves of one round.
func (t *Table) diff(from string, peer *Digest, peerOwns, selfOwns func(key string) bool) *Delta {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	theirs := make(map[string]DigestEntry, len(peer.Entries))
	for _, e := range peer.Entries {
		theirs[e.Key] = e
	}
	d := &Delta{From: from}
	for k, e := range t.entries {
		if !peerOwns(k) {
			continue
		}
		pe, ok := theirs[k]
		if !ok || newer(e.seq, e.origin, &replEntry{seq: pe.Seq, origin: pe.Origin}) {
			if de, ok := t.deltaEntryLocked(k, e, now); ok {
				d.Entries = append(d.Entries, de)
			}
		}
	}
	sort.Slice(d.Entries, func(i, j int) bool { return d.Entries[i].Key < d.Entries[j].Key })
	for _, pe := range peer.Entries {
		if !selfOwns(pe.Key) {
			continue
		}
		e, ok := t.entries[pe.Key]
		if !ok || newer(pe.Seq, pe.Origin, e) {
			d.Want = append(d.Want, pe.Key)
		}
	}
	sort.Strings(d.Want)
	return d
}

// apply merges remote delta entries under LWW, restricted to keys this
// member owns (misrouted entries are ignored — nobody would anti-entropy
// them here, so accepting them would strand stale copies). It returns how
// many entries were applied.
func (t *Table) apply(entries []DeltaEntry, owns func(key string) bool) int {
	now := t.clock.Now()
	applied := 0
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, de := range entries {
		if !owns(de.Key) {
			continue
		}
		t.observeSeqLocked(de.Seq)
		if cur, ok := t.entries[de.Key]; ok && !newer(de.Seq, de.Origin, cur) {
			continue
		}
		e := &replEntry{
			seq:     de.Seq,
			origin:  de.Origin,
			deleted: de.Deleted,
			expires: now.Add(time.Duration(de.TTLMillis) * time.Millisecond),
		}
		if !de.Deleted {
			desc, err := svcdesc.UnmarshalDescription(de.Desc)
			if err != nil || desc.Validate() != nil {
				continue
			}
			e.desc = desc
		}
		t.entries[de.Key] = e
		applied++
	}
	return applied
}
