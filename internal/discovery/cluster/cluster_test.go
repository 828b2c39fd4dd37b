package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndsm/internal/discovery"
	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

var epoch = time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)

func desc(provider, name string) *svcdesc.Description {
	return &svcdesc.Description{
		Name:        name,
		Provider:    provider,
		Reliability: 0.9,
		PowerLevel:  1.0,
	}
}

// --- ring ---

func TestRingCanonicalAndDeterministic(t *testing.T) {
	a := NewRing([]string{"r2", "r0", "r1", "r0", ""})
	b := NewRing([]string{"r1", "r2", "r0"})
	if !reflect.DeepEqual(a.Members(), []string{"r0", "r1", "r2"}) {
		t.Fatalf("Members = %v", a.Members())
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("node-%d|svc/%d|", i, i)
		if !reflect.DeepEqual(a.Owners(key, 2), b.Owners(key, 2)) {
			t.Fatalf("placement differs for %q: %v vs %v",
				key, a.Owners(key, 2), b.Owners(key, 2))
		}
	}
}

func TestRingOwnersDistinctAndClamped(t *testing.T) {
	r := NewRing([]string{"r0", "r1", "r2"})
	owners := r.Owners("some|key|", 5)
	if len(owners) != 3 {
		t.Fatalf("Owners clamp = %v", owners)
	}
	seen := map[string]bool{}
	for _, m := range owners {
		if seen[m] {
			t.Fatalf("duplicate owner in %v", owners)
		}
		seen[m] = true
	}
	if got := r.Owners("k", 0); got != nil {
		t.Fatalf("Owners(0) = %v", got)
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"r0", "r1", "r2"})
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Owners(fmt.Sprintf("prov-%d|svc-%d|", i, i%7), 1)[0]]++
	}
	for m, c := range counts {
		// With 64 vnodes each member should hold a sane share; the bound is
		// deliberately loose (1/6th to 1/1.5th of the keyspace for N=3).
		if c < keys/6 || c > 2*keys/3 {
			t.Fatalf("member %s owns %d of %d keys: unbalanced %v", m, c, keys, counts)
		}
	}
}

func TestRingOwnsAgreesWithOwners(t *testing.T) {
	r := NewRing([]string{"r0", "r1", "r2", "r3", "r4"})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("p%d|s%d|", i, i)
		owners := r.Owners(key, 2)
		for _, m := range r.Members() {
			want := m == owners[0] || m == owners[1]
			if got := r.Owns(m, key, 2); got != want {
				t.Fatalf("Owns(%s, %s) = %v, owners %v", m, key, got, owners)
			}
		}
	}
}

// --- gossip codec ---

func TestGossipDigestRoundTrip(t *testing.T) {
	in := &Digest{
		From: "r0",
		Entries: []DigestEntry{
			{Key: "a|b|", Seq: 7, Origin: "r1"},
			{Key: "c|d|e", Seq: 1 << 40, Origin: "r2"},
		},
	}
	out, err := DecodeDigest(AppendDigest(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", in, out)
	}
}

func TestGossipDeltaRoundTrip(t *testing.T) {
	in := &Delta{
		From: "r1",
		Entries: []DeltaEntry{
			{Key: "a|b|", Seq: 3, Origin: "r0", TTLMillis: 1500, Desc: []byte("<x/>")},
			{Key: "dead|key|", Seq: 9, Origin: "r2", Deleted: true, TTLMillis: 30000},
		},
		Want: []string{"p|q|", "r|s|"},
	}
	out, err := DecodeDelta(AppendDelta(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", in, out)
	}
}

func TestGossipDecodeRejects(t *testing.T) {
	valid := AppendDigest(nil, &Digest{From: "r0", Entries: []DigestEntry{{Key: "k", Seq: 1, Origin: "r0"}}})
	cases := map[string][]byte{
		"empty":       nil,
		"bad version": append([]byte{99}, valid[1:]...),
		"wrong kind":  AppendDelta(nil, &Delta{From: "r0"}),
		"trailing":    append(append([]byte(nil), valid...), 0xFF),
		"truncated":   valid[:len(valid)-2],
		"huge count":  append([]byte{gossipVersion, kindDigest, 2, 'r', '0'}, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
	}
	for name, buf := range cases {
		if _, err := DecodeDigest(buf); err == nil {
			t.Fatalf("%s: decoded", name)
		} else if !errors.Is(err, ErrBadGossip) {
			t.Fatalf("%s: err = %v, want ErrBadGossip", name, err)
		}
	}
	if _, err := DecodeDelta(valid); err == nil {
		t.Fatal("delta decoder accepted a digest")
	}
}

// --- table ---

func TestTableLWWConvergence(t *testing.T) {
	clock := simtime.NewVirtual(epoch)
	a := NewTable("ra", clock, time.Minute)
	b := NewTable("rb", clock, time.Minute)
	all := func(string) bool { return true }

	d := desc("n1", "sensor/bp")
	if err := a.Register(d); err != nil {
		t.Fatal(err)
	}
	key := d.Key()

	// Replicate a -> b through a full round.
	delta := a.diff("ra", b.digest("rb"), all, all)
	if n := b.apply(delta.Entries, all); n != 1 {
		t.Fatalf("apply = %d", n)
	}
	if !b.HasLive(key) {
		t.Fatal("entry did not replicate")
	}

	// b unregisters; the tombstone must win on a even though a's copy lives.
	if err := b.Unregister(key); err != nil {
		t.Fatal(err)
	}
	delta = b.diff("rb", a.digest("ra"), all, all)
	if n := a.apply(delta.Entries, all); n != 1 {
		t.Fatalf("tombstone apply = %d", n)
	}
	if a.HasLive(key) {
		t.Fatal("tombstone lost LWW against the live copy")
	}

	// A re-register (new local write on a) must beat the tombstone back.
	if err := a.Register(d); err != nil {
		t.Fatal(err)
	}
	delta = a.diff("ra", b.digest("rb"), all, all)
	b.apply(delta.Entries, all)
	if !b.HasLive(key) {
		t.Fatal("re-register lost against the tombstone")
	}
}

func TestTableLeaseTravelsAsRemainingTTL(t *testing.T) {
	clock := simtime.NewVirtual(epoch)
	a := NewTable("ra", clock, time.Minute)
	b := NewTable("rb", clock, time.Minute)
	all := func(string) bool { return true }

	d := desc("n1", "printer")
	d.TTL = 10 * time.Second
	if err := a.Register(d); err != nil {
		t.Fatal(err)
	}
	clock.Advance(4 * time.Second)
	delta := a.diff("ra", b.digest("rb"), all, all)
	b.apply(delta.Entries, all)

	// The copy on b carries only the ~6s that remained, not a fresh 10s.
	clock.Advance(5 * time.Second)
	if !b.HasLive(d.Key()) {
		t.Fatal("lease died early on the replica")
	}
	clock.Advance(2 * time.Second)
	if b.HasLive(d.Key()) {
		t.Fatal("replica outlived the remaining lease")
	}
}

func TestTableSweepRemovesExpired(t *testing.T) {
	clock := simtime.NewVirtual(epoch)
	tab := NewTable("ra", clock, 10*time.Second)
	d := desc("n1", "sensor/bp")
	if err := tab.Register(d); err != nil {
		t.Fatal(err)
	}
	d2 := desc("n2", "printer")
	if err := tab.Register(d2); err != nil {
		t.Fatal(err)
	}
	if err := tab.Unregister(d2.Key()); err != nil {
		t.Fatal(err)
	}
	if len(tab.entries) != 2 {
		t.Fatalf("Len = %d", len(tab.entries))
	}
	clock.Advance(11 * time.Second)
	if got := tab.Sweep(); got != 1 { // the lease (10s) expired, the tombstone not
		t.Fatalf("Sweep = %d", got)
	}
	clock.Advance(DefaultTombstoneTTL - 10*time.Second)
	if got := tab.Sweep(); got != 1 {
		t.Fatalf("second Sweep = %d", got)
	}
	if len(tab.entries) != 0 {
		t.Fatalf("Len after sweeps = %d", len(tab.entries))
	}
}

func TestTableRenewBumpsSequence(t *testing.T) {
	clock := simtime.NewVirtual(epoch)
	a := NewTable("ra", clock, 10*time.Second)
	b := NewTable("rb", clock, 10*time.Second)
	all := func(string) bool { return true }

	d := desc("n1", "sensor/bp")
	if err := a.Register(d); err != nil {
		t.Fatal(err)
	}
	b.apply(a.diff("ra", b.digest("rb"), all, all).Entries, all)

	clock.Advance(8 * time.Second)
	if err := a.Renew(d.Key()); err != nil {
		t.Fatal(err)
	}
	// The renewal must show up as "a is newer" in the next digest exchange.
	delta := a.diff("ra", b.digest("rb"), all, all)
	if len(delta.Entries) != 1 {
		t.Fatalf("renewal invisible to anti-entropy: %+v", delta)
	}
	b.apply(delta.Entries, all)
	clock.Advance(5 * time.Second) // 13s from register: dead without the renewal
	if !b.HasLive(d.Key()) {
		t.Fatal("renewed lease did not propagate")
	}
}

func TestTableApplyFiltersOwnership(t *testing.T) {
	tab := NewTable("ra", simtime.NewVirtual(epoch), time.Minute)
	de := DeltaEntry{Key: "n1|printer|", Seq: 1, Origin: "rb", TTLMillis: 60000}
	if n := tab.apply([]DeltaEntry{de}, func(string) bool { return false }); n != 0 {
		t.Fatalf("applied a key this member does not own: %d", n)
	}
	if len(tab.entries) != 0 {
		t.Fatal("misrouted entry stored")
	}
}

func TestTableRejectsMalformedDesc(t *testing.T) {
	tab := NewTable("ra", simtime.NewVirtual(epoch), time.Minute)
	all := func(string) bool { return true }
	de := DeltaEntry{Key: "n1|printer|", Seq: 1, Origin: "rb", TTLMillis: 60000, Desc: []byte("junk")}
	if n := tab.apply([]DeltaEntry{de}, all); n != 0 {
		t.Fatalf("applied junk desc: %d", n)
	}
}

// --- cluster: nodes + resolver over a mem fabric ---

type testCluster struct {
	fabric  *transport.Fabric
	nodes   []*Node
	members []string
}

func newTestCluster(t *testing.T, n, rf int) *testCluster {
	t.Helper()
	tc := &testCluster{fabric: transport.NewFabric()}
	for i := 0; i < n; i++ {
		tc.members = append(tc.members, fmt.Sprintf("registry%d", i))
	}
	for i := 0; i < n; i++ {
		tr := transport.NewMem(tc.fabric)
		l, err := tr.Listen(tc.members[i])
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(tr, l, NodeOptions{
			Self:              tc.members[i],
			Members:           tc.members,
			ReplicationFactor: rf,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes = append(tc.nodes, node)
	}
	t.Cleanup(func() {
		for _, node := range tc.nodes {
			if node != nil {
				_ = node.Close()
			}
		}
	})
	return tc
}

// settle runs full-mesh anti-entropy rounds until no round moves data.
func (tc *testCluster) settle(t *testing.T) {
	t.Helper()
	for round := 0; round < 5; round++ {
		for _, a := range tc.nodes {
			if a == nil {
				continue
			}
			for _, peer := range tc.members {
				if peer == a.Self() {
					continue
				}
				if err := a.SyncWith(peer); err != nil {
					t.Fatalf("sync %s -> %s: %v", a.Self(), peer, err)
				}
			}
		}
	}
}

func (tc *testCluster) resolver(t *testing.T, rf int) *Resolver {
	t.Helper()
	r, err := NewResolver(transport.NewMem(tc.fabric), ResolverOptions{
		Members:           tc.members,
		ReplicationFactor: rf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func TestClusterReplicatesAtFactor(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	res := tc.resolver(t, 2)
	var keys []string
	for i := 0; i < 20; i++ {
		d := desc(fmt.Sprintf("node-%d", i), fmt.Sprintf("svc/%d", i))
		if err := res.Register(d); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, d.Key())
	}
	tc.settle(t)
	for _, key := range keys {
		copies := 0
		for _, node := range tc.nodes {
			if node.Table().HasLive(key) {
				if !node.Ring().Owns(node.Self(), key, 2) {
					t.Fatalf("%s holds %s without owning it", node.Self(), key)
				}
				copies++
			}
		}
		if copies != 2 {
			t.Fatalf("key %s has %d live copies, want 2", key, copies)
		}
	}
}

func TestClusterLookupMergesShards(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	res := tc.resolver(t, 2)
	for i := 0; i < 12; i++ {
		if err := res.Register(desc(fmt.Sprintf("node-%d", i), "sensor/bp")); err != nil {
			t.Fatal(err)
		}
	}
	tc.settle(t)
	got, err := res.Lookup(&svcdesc.Query{Name: "sensor/*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 {
		t.Fatalf("merged lookup = %d descs, want 12", len(got))
	}
	seen := map[string]bool{}
	for _, d := range got {
		if seen[d.Key()] {
			t.Fatalf("duplicate key %s in merge", d.Key())
		}
		seen[d.Key()] = true
	}
}

func TestClusterSurvivesSingleNodeKill(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	res := tc.resolver(t, 2)
	res.SetCallTimeout(500 * time.Millisecond)
	for i := 0; i < 12; i++ {
		if err := res.Register(desc(fmt.Sprintf("node-%d", i), "sensor/bp")); err != nil {
			t.Fatal(err)
		}
	}
	tc.settle(t)

	_ = tc.nodes[1].Close()
	tc.nodes[1] = nil

	// Reads: quorum is 2 of 3, so the merge still covers every owner set.
	got, err := res.Lookup(&svcdesc.Query{Name: "sensor/*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 {
		t.Fatalf("post-kill lookup = %d descs, want 12", len(got))
	}

	// Writes: every key keeps at least one live owner at RF=2, so registers
	// must keep succeeding too.
	for i := 0; i < 6; i++ {
		if err := res.Register(desc(fmt.Sprintf("late-%d", i), "printer")); err != nil {
			t.Fatalf("post-kill register: %v", err)
		}
	}
}

func TestClusterLookupFailsBelowQuorum(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	res := tc.resolver(t, 2)
	res.SetCallTimeout(300 * time.Millisecond)
	if err := res.Register(desc("n1", "printer")); err != nil {
		t.Fatal(err)
	}
	_ = tc.nodes[0].Close()
	_ = tc.nodes[2].Close()
	tc.nodes[0], tc.nodes[2] = nil, nil
	if _, err := res.Lookup(&svcdesc.Query{Name: "printer"}); err == nil {
		t.Fatal("lookup succeeded below quorum")
	} else if !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("err = %v", err)
	}
}

func TestClusterAntiEntropyRepairsKilledReplica(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	res := tc.resolver(t, 2)
	res.SetCallTimeout(500 * time.Millisecond)
	var keys []string
	for i := 0; i < 12; i++ {
		d := desc(fmt.Sprintf("node-%d", i), fmt.Sprintf("svc/%d", i))
		if err := res.Register(d); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, d.Key())
	}
	tc.settle(t)

	// Replace a member with an empty table (a restart that lost its state).
	dead := tc.nodes[1]
	self := dead.Self()
	_ = dead.Close()
	tr := transport.NewMem(tc.fabric)
	l, err := tr.Listen(self)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewNode(tr, l, NodeOptions{Self: self, Members: tc.members, ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	tc.nodes[1] = fresh

	tc.settle(t)
	for _, key := range keys {
		if fresh.Ring().Owns(self, key, 2) && !fresh.Table().HasLive(key) {
			t.Fatalf("anti-entropy did not repair %s on the restarted member", key)
		}
	}
}

func TestClusterUnregisterPropagates(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	res := tc.resolver(t, 2)
	d := desc("n1", "printer")
	if err := res.Register(d); err != nil {
		t.Fatal(err)
	}
	tc.settle(t)
	if err := res.Unregister(d.Key()); err != nil {
		t.Fatal(err)
	}
	// Both writes returned at their first owner's answer. Close waits for
	// the other owner's copies: until they land, that owner may serve the
	// Register whose Unregister is still queued behind it.
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	tc.settle(t)
	for _, node := range tc.nodes {
		if node.Table().HasLive(d.Key()) {
			t.Fatalf("%s still serves the unregistered key", node.Self())
		}
	}
	got, err := tc.resolver(t, 2).Lookup(&svcdesc.Query{Name: "printer"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("lookup after unregister = %+v", got)
	}
}

// holdRegister is a transport whose first Register to member waits in Send
// until release: until member answers an Unregister, or the test releases
// it. held is closed once it waits, sent once it is sent.
type holdRegister struct {
	transport.Transport
	member              string
	held, release, sent chan struct{}
	hold, releaseOnce   sync.Once
	unregister          atomic.Uint64 // request ID of the Unregister sent to member
}

type holdConn struct {
	transport.Conn
	h *holdRegister
}

func newHoldRegister(tr transport.Transport, member string) *holdRegister {
	return &holdRegister{Transport: tr, member: member,
		held: make(chan struct{}), release: make(chan struct{}), sent: make(chan struct{})}
}

func (h *holdRegister) Release() { h.releaseOnce.Do(func() { close(h.release) }) }

func (h *holdRegister) Dial(addr string) (transport.Conn, error) {
	c, err := h.Transport.Dial(addr)
	if err != nil || addr != h.member {
		return c, err
	}
	return &holdConn{Conn: c, h: h}, nil
}

func (c *holdConn) Send(m *wire.Message) error {
	switch m.Topic {
	case discovery.TopicUnregister:
		c.h.unregister.Store(m.ID)
	case discovery.TopicRegister:
		held := false
		c.h.hold.Do(func() {
			held = true
			close(c.h.held)
			<-c.h.release
		})
		if held {
			defer close(c.h.sent)
		}
	}
	return c.Conn.Send(m)
}

func (c *holdConn) Recv() (*wire.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Corr == c.h.unregister.Load() {
		c.h.Release()
	}
	return m, err
}

// entrySeq is the sequence of node's entry for key (0: none).
func entrySeq(n *Node, key string) uint64 {
	n.table.mu.Lock()
	defer n.table.mu.Unlock()
	if e := n.table.entries[key]; e != nil {
		return e.seq
	}
	return 0
}

// TestClusterLateRegisterCopyCannotResurrect holds one owner's copy of a
// Register until after the Unregister that follows it. Anti-entropy has
// taught that owner a later Lamport sequence in between, so a copy applied
// out of order would outrank both tombstones and gossip the key back.
func TestClusterLateRegisterCopyCannotResurrect(t *testing.T) {
	tc := newTestCluster(t, 2, 2) // both members own every key
	late := tc.nodes[1]
	hold := newHoldRegister(transport.NewMem(tc.fabric), late.Self())
	res, err := NewResolver(hold, ResolverOptions{Members: tc.members, ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = res.Close() })
	d := desc("n1", "printer")
	if err := res.Register(d); err != nil { // answered by the other owner
		t.Fatal(err)
	}
	<-hold.held
	tc.settle(t) // the late owner learns the other's copy, seq 1
	if err := res.Unregister(d.Key()); err != nil {
		t.Fatal(err)
	}
	// Unordered writes send the late owner its Unregister copy now, and its
	// answer releases the Register. Ordered ones queue that copy behind the
	// held Register, so nothing answers it until the Register is let go.
	select {
	case <-hold.release:
	case <-time.After(100 * time.Millisecond):
		hold.Release()
	}
	<-hold.sent
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	// The late owner has now applied three writes, in whatever order they
	// reached it: the gossiped copy, its Register copy and its tombstone.
	deadline := time.Now().Add(5 * time.Second)
	for entrySeq(late, d.Key()) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("late owner's copy stuck at seq %d", entrySeq(late, d.Key()))
		}
		time.Sleep(time.Millisecond)
	}
	tc.settle(t)
	for _, node := range tc.nodes {
		if node.Table().HasLive(d.Key()) {
			t.Fatalf("%s serves the key again after its Unregister", node.Self())
		}
	}
}

func TestClusterServesPlainRegistryClients(t *testing.T) {
	// A cluster member speaks the standard registry protocol: an unmodified
	// discovery.Client pointed at one member works for keys it owns.
	tc := newTestCluster(t, 3, 2)
	res := tc.resolver(t, 2)
	d := desc("n1", "sensor/bp")
	if err := res.Register(d); err != nil {
		t.Fatal(err)
	}
	tc.settle(t)
	var owner string
	for _, node := range tc.nodes {
		if node.Table().HasLive(d.Key()) {
			owner = node.Self()
			break
		}
	}
	if owner == "" {
		t.Fatal("no owner holds the key")
	}
	cli := discovery.NewClient(transport.NewMem(tc.fabric), owner)
	defer cli.Close()
	got, err := cli.Lookup(&svcdesc.Query{Name: "sensor/*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Provider != "n1" {
		t.Fatalf("plain client lookup = %+v", got)
	}
}

func TestNodeRejectsSelfOutsideMembers(t *testing.T) {
	tr := transport.NewMem(transport.NewFabric())
	l, err := tr.Listen("registry0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := NewNode(tr, l, NodeOptions{Self: "elsewhere", Members: []string{"registry0"}}); err == nil {
		t.Fatal("node accepted a self outside the membership")
	}
}

func TestNodeBackgroundSyncLoop(t *testing.T) {
	// SyncEvery > 0 drives anti-entropy from the clock with no manual
	// SyncWith calls.
	fabric := transport.NewFabric()
	members := []string{"registry0", "registry1"}
	var nodes []*Node
	for _, self := range members {
		tr := transport.NewMem(fabric)
		l, err := tr.Listen(self)
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(tr, l, NodeOptions{
			Self:              self,
			Members:           members,
			ReplicationFactor: 2,
			SyncEvery:         5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		nodes = append(nodes, node)
	}
	d := desc("n1", "printer")
	if err := nodes[0].Table().Register(d); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !nodes[1].Table().HasLive(d.Key()) {
		if time.Now().After(deadline) {
			t.Fatal("background sync never replicated the entry")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
