package discovery

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transport"
)

// fakeResolver is a controllable inner resolver: it counts lookups, can
// block them on a gate, and serves a fixed description set.
type fakeResolver struct {
	mu      sync.Mutex
	descs   []*svcdesc.Description
	lookups atomic.Int64
	gate    chan struct{} // non-nil: Lookup blocks until the gate closes
}

func (f *fakeResolver) set(descs ...*svcdesc.Description) {
	f.mu.Lock()
	f.descs = descs
	f.mu.Unlock()
}

func (f *fakeResolver) Register(*svcdesc.Description) error { return nil }
func (f *fakeResolver) Unregister(string) error             { return nil }
func (f *fakeResolver) Renew(string) error                  { return nil }
func (f *fakeResolver) Close() error                        { return nil }

func (f *fakeResolver) Lookup(*svcdesc.Query) ([]*svcdesc.Description, error) {
	f.lookups.Add(1)
	f.mu.Lock()
	gate := f.gate
	descs := append([]*svcdesc.Description(nil), f.descs...)
	f.mu.Unlock()
	if gate != nil {
		<-gate
		// Re-read: the gate pattern is used to swap data mid-flight.
		f.mu.Lock()
		descs = append([]*svcdesc.Description(nil), f.descs...)
		f.mu.Unlock()
	}
	return descs, nil
}

func bpQuery() *svcdesc.Query { return &svcdesc.Query{Name: "sensor/bp"} }

func TestCachedFreshHitServesLocally(t *testing.T) {
	clock := simtime.NewVirtual(epoch)
	inner := &fakeResolver{}
	inner.set(desc("n1", "sensor/bp"))
	c := NewCached(inner, CacheOptions{Clock: clock, TTL: time.Second})
	defer c.Close() //nolint:errcheck

	for i := 0; i < 5; i++ {
		got, err := c.Lookup(bpQuery())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Provider != "n1" {
			t.Fatalf("lookup %d = %+v", i, got)
		}
		clock.Advance(100 * time.Millisecond)
	}
	if n := inner.lookups.Load(); n != 1 {
		t.Fatalf("inner lookups = %d, want 1 (all hits after the fill)", n)
	}
}

func TestCachedExpiresExactlyAtTTLBoundary(t *testing.T) {
	clock := simtime.NewVirtual(epoch)
	inner := &fakeResolver{}
	inner.set(desc("n1", "sensor/bp"))
	c := NewCached(inner, CacheOptions{Clock: clock, TTL: time.Second, StaleFor: time.Second})
	defer c.Close() //nolint:errcheck

	if _, err := c.Lookup(bpQuery()); err != nil { // fill
		t.Fatal(err)
	}
	clock.Advance(time.Second - time.Nanosecond)
	if _, err := c.Lookup(bpQuery()); err != nil { // age just under TTL: fresh
		t.Fatal(err)
	}
	if n := inner.lookups.Load(); n != 1 {
		t.Fatalf("inner lookups = %d before the boundary, want 1", n)
	}

	clock.Advance(time.Nanosecond) // age == TTL exactly: no longer fresh
	if _, err := c.Lookup(bpQuery()); err != nil {
		t.Fatal(err)
	}
	// The boundary falls into the stale window, so the entry is served but a
	// revalidation fetch must fire.
	deadline := time.Now().Add(5 * time.Second)
	for inner.lookups.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("inner lookups = %d at the TTL boundary, want 2 (revalidation)", inner.lookups.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCachedStaleServeWhileRevalidate(t *testing.T) {
	clock := simtime.NewVirtual(epoch)
	inner := &fakeResolver{}
	inner.set(desc("n1", "sensor/bp"))
	c := NewCached(inner, CacheOptions{Clock: clock, TTL: time.Second, StaleFor: time.Minute})
	defer c.Close() //nolint:errcheck

	if _, err := c.Lookup(bpQuery()); err != nil {
		t.Fatal(err)
	}

	// Make the next wire fetch slow and change what it will return.
	gate := make(chan struct{})
	inner.mu.Lock()
	inner.gate = gate
	inner.mu.Unlock()
	inner.set(desc("n2", "sensor/bp"))

	clock.Advance(2 * time.Second) // into the stale window
	start := time.Now()
	got, err := c.Lookup(bpQuery())
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stale lookup blocked for %v on the in-flight revalidation", elapsed)
	}
	if len(got) != 1 || got[0].Provider != "n1" {
		t.Fatalf("stale serve = %+v, want the old n1 result", got)
	}

	close(gate) // let the revalidation land
	inner.mu.Lock()
	inner.gate = nil
	inner.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := c.Lookup(bpQuery())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 1 && got[0].Provider == "n2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("revalidated result never became visible: %+v", got)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCachedBlocksPastStaleWindow(t *testing.T) {
	clock := simtime.NewVirtual(epoch)
	inner := &fakeResolver{}
	inner.set(desc("n1", "sensor/bp"))
	c := NewCached(inner, CacheOptions{Clock: clock, TTL: time.Second, StaleFor: time.Second})
	defer c.Close() //nolint:errcheck

	if _, err := c.Lookup(bpQuery()); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second) // age == TTL+StaleFor: past the window
	if _, err := c.Lookup(bpQuery()); err != nil {
		t.Fatal(err)
	}
	if n := inner.lookups.Load(); n != 2 {
		t.Fatalf("inner lookups = %d past the stale window, want a blocking fetch", n)
	}
}

func TestCachedSingleFlightCoalesces(t *testing.T) {
	clock := simtime.NewVirtual(epoch)
	inner := &fakeResolver{}
	inner.set(desc("n1", "sensor/bp"))
	gate := make(chan struct{})
	inner.mu.Lock()
	inner.gate = gate
	inner.mu.Unlock()
	c := NewCached(inner, CacheOptions{Clock: clock, TTL: time.Second})
	defer c.Close() //nolint:errcheck

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	results := make([][]*svcdesc.Description, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Lookup(bpQuery())
		}(i)
	}
	// Wait until the one wire fetch is in flight, then give the other
	// callers a moment to pile onto it before releasing.
	deadline := time.Now().Add(5 * time.Second)
	for inner.lookups.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no fetch started")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	if n := inner.lookups.Load(); n != 1 {
		t.Fatalf("inner lookups = %d for %d concurrent callers, want 1", n, callers)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if len(results[i]) != 1 || results[i][0].Provider != "n1" {
			t.Fatalf("caller %d = %+v", i, results[i])
		}
	}
}

func TestCachedInvalidateProviderDropsMatchingEntries(t *testing.T) {
	clock := simtime.NewVirtual(epoch)
	inner := &fakeResolver{}
	inner.set(desc("n1", "sensor/bp"))
	c := NewCached(inner, CacheOptions{Clock: clock, TTL: time.Hour})
	defer c.Close() //nolint:errcheck

	if _, err := c.Lookup(bpQuery()); err != nil {
		t.Fatal(err)
	}
	Invalidate(c, "unrelated-provider")
	if _, err := c.Lookup(bpQuery()); err != nil {
		t.Fatal(err)
	}
	if n := inner.lookups.Load(); n != 1 {
		t.Fatalf("unrelated invalidation evicted the entry: lookups = %d", n)
	}
	Invalidate(c, "n1")
	if _, err := c.Lookup(bpQuery()); err != nil {
		t.Fatal(err)
	}
	if n := inner.lookups.Load(); n != 2 {
		t.Fatalf("invalidation did not evict: lookups = %d, want 2", n)
	}
}

func TestCachedWriteClearsCache(t *testing.T) {
	clock := simtime.NewVirtual(epoch)
	inner := &fakeResolver{}
	inner.set(desc("n1", "sensor/bp"))
	c := NewCached(inner, CacheOptions{Clock: clock, TTL: time.Hour})
	defer c.Close() //nolint:errcheck

	if _, err := c.Lookup(bpQuery()); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(desc("n2", "printer")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(bpQuery()); err != nil {
		t.Fatal(err)
	}
	if n := inner.lookups.Load(); n != 2 {
		t.Fatalf("register did not clear the cache: lookups = %d", n)
	}
}

// TestServerSweepTicker drives the registry server's sweep loop from a
// virtual clock: expired leases vanish with no request traffic at all.
func TestServerSweepTicker(t *testing.T) {
	clock := simtime.NewVirtual(epoch)
	store := NewStore(clock, time.Second)
	fabric := transport.NewFabric()
	st := transport.NewMem(fabric)
	l, err := st.Listen("registry")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewResolverServer(store, l, ServerOptions{Clock: clock, SweepEvery: 500 * time.Millisecond})
	defer srv.Close() //nolint:errcheck

	long := desc("n2", "sensor/bp")
	long.TTL = time.Hour
	for _, d := range []*svcdesc.Description{desc("n1", "sensor/bp"), long} {
		if err := store.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	// Advance in ticker-sized steps until the loop has both re-armed and
	// swept; the short lease is 1s so two ticks suffice once they land.
	deadline := time.Now().Add(5 * time.Second)
	tickUntil := func(want int) {
		t.Helper()
		for held(store) != want {
			if time.Now().After(deadline) {
				t.Fatalf("sweep ticker never collected the expired lease: held %d, want %d", held(store), want)
			}
			clock.Advance(500 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}
	tickUntil(1)
	if left, _ := store.Lookup(&svcdesc.Query{}); len(left) != 1 || left[0].Provider != "n2" {
		t.Fatalf("after the short lease went: %+v", left)
	}
	// The ticker has now swept, found one lease due and kept the other; it
	// must still find that one when its hour is up.
	clock.Advance(time.Hour)
	tickUntil(0)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
