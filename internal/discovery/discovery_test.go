package discovery

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ndsm/internal/endpoint"
	"ndsm/internal/netmux"
	"ndsm/internal/netsim"
	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
	"ndsm/internal/trace"
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
		Attributes:  map[string]string{"unit": "mmHg"},
	}
}

func TestStoreRegisterLookup(t *testing.T) {
	s := NewStore(nil, 0)
	if err := s.Register(desc("n1", "sensor/bp")); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(desc("n2", "printer")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Lookup(&svcdesc.Query{Name: "sensor/*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Provider != "n1" {
		t.Fatalf("Lookup = %+v", got)
	}
	all, _ := s.Lookup(&svcdesc.Query{})
	if len(all) != 2 {
		t.Fatalf("wildcard lookup = %d", len(all))
	}
	if held(s) != 2 {
		t.Fatalf("held %d, want 2", held(s))
	}
}

// held is how many entries s physically holds, expired ones included.
func held(s *Store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

func TestStoreRejectsInvalid(t *testing.T) {
	s := NewStore(nil, 0)
	if err := s.Register(&svcdesc.Description{}); err == nil {
		t.Fatal("invalid description registered")
	}
}

func TestStoreLookupReturnsClones(t *testing.T) {
	s := NewStore(nil, 0)
	if err := s.Register(desc("n1", "svc")); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Lookup(&svcdesc.Query{})
	got[0].Attributes["unit"] = "tampered"
	again, _ := s.Lookup(&svcdesc.Query{})
	if again[0].Attributes["unit"] != "mmHg" {
		t.Fatal("lookup exposed internal state")
	}
}

func TestStoreRegisterClonesInput(t *testing.T) {
	s := NewStore(nil, 0)
	d := desc("n1", "svc")
	if err := s.Register(d); err != nil {
		t.Fatal(err)
	}
	d.Attributes["unit"] = "tampered"
	got, _ := s.Lookup(&svcdesc.Query{})
	if got[0].Attributes["unit"] != "mmHg" {
		t.Fatal("store shares caller's description")
	}
}

func TestStoreUnregister(t *testing.T) {
	s := NewStore(nil, 0)
	d := desc("n1", "svc")
	if err := s.Register(d); err != nil {
		t.Fatal(err)
	}
	if err := s.Unregister(d.Key()); err != nil {
		t.Fatal(err)
	}
	if err := s.Unregister(d.Key()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second unregister: %v", err)
	}
	got, _ := s.Lookup(&svcdesc.Query{})
	if len(got) != 0 {
		t.Fatal("entry survived unregister")
	}
}

func TestStoreExpiryAndRenew(t *testing.T) {
	clk := simtime.NewVirtual(epoch)
	s := NewStore(clk, 10*time.Second)
	d := desc("n1", "svc")
	if err := s.Register(d); err != nil {
		t.Fatal(err)
	}

	clk.Advance(9 * time.Second)
	if got, _ := s.Lookup(&svcdesc.Query{}); len(got) != 1 {
		t.Fatal("entry expired early")
	}
	if err := s.Renew(d.Key()); err != nil {
		t.Fatal(err)
	}
	clk.Advance(9 * time.Second)
	if got, _ := s.Lookup(&svcdesc.Query{}); len(got) != 1 {
		t.Fatal("renewed entry expired early")
	}
	clk.Advance(2 * time.Second)
	if got, _ := s.Lookup(&svcdesc.Query{}); len(got) != 0 {
		t.Fatal("expired entry still matches")
	}
	if err := s.Renew(d.Key()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("renew of expired entry: %v", err)
	}
}

func TestStoreCustomTTL(t *testing.T) {
	clk := simtime.NewVirtual(epoch)
	s := NewStore(clk, time.Minute)
	d := desc("n1", "svc")
	d.TTL = time.Second
	if err := s.Register(d); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if got, _ := s.Lookup(&svcdesc.Query{}); len(got) != 0 {
		t.Fatal("per-description TTL ignored")
	}
}

func TestStoreSweep(t *testing.T) {
	clk := simtime.NewVirtual(epoch)
	s := NewStore(clk, time.Second)
	for i := 0; i < 3; i++ {
		if err := s.Register(desc(fmt.Sprintf("n%d", i), "svc")); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(2 * time.Second)
	if held(s) != 3 {
		t.Fatal("entries physically removed before sweep")
	}
	if removed := s.Sweep(); removed != 3 {
		t.Fatalf("Sweep removed %d, want 3", removed)
	}
	if held(s) != 0 {
		t.Fatal("entries survive sweep")
	}
	if s.Sweep() != 0 {
		t.Fatal("second sweep removed something")
	}
}

// Sweep skips the scan until the clock passes the earliest expiry the table
// can hold. Each case moves that earliest expiry a different way and checks
// what the table physically holds (held) after every Sweep: an expired lease
// goes in the first Sweep after its time, whatever happened to the bound.
func TestStoreSweepEarliestExpiry(t *testing.T) {
	lease := func(s *Store, provider string, ttl time.Duration) string {
		t.Helper()
		d := desc(provider, "svc")
		d.TTL = ttl
		if err := s.Register(d); err != nil {
			t.Fatal(err)
		}
		return d.Key()
	}
	sweep := func(s *Store, removed, left int) {
		t.Helper()
		if got := s.Sweep(); got != removed || held(s) != left {
			t.Fatalf("Sweep removed %d leaving %d, want %d leaving %d", got, held(s), removed, left)
		}
	}
	fresh := func() (*simtime.Virtual, *Store) {
		clk := simtime.NewVirtual(epoch)
		return clk, NewStore(clk, time.Minute)
	}

	t.Run("the soonest lease goes alone", func(t *testing.T) {
		clk, s := fresh()
		lease(s, "long", 30*time.Second)
		lease(s, "short", 10*time.Second)
		lease(s, "mid", 20*time.Second)
		clk.Advance(10 * time.Second)
		sweep(s, 0, 3) // expires at 10s means gone after 10s
		clk.Advance(time.Millisecond)
		sweep(s, 1, 2)
		if got, _ := s.Lookup(&svcdesc.Query{}); len(got) != 2 || got[0].Provider != "long" || got[1].Provider != "mid" {
			t.Fatalf("wrong survivors: %+v", got)
		}
		clk.Advance(10 * time.Second)
		sweep(s, 1, 1)
		clk.Advance(10 * time.Second)
		sweep(s, 1, 0)
	})

	t.Run("renewing the soonest", func(t *testing.T) {
		clk, s := fresh()
		short := lease(s, "short", 10*time.Second)
		lease(s, "long", 15*time.Second)
		clk.Advance(8 * time.Second)
		if err := s.Renew(short); err != nil { // now expires at 18s
			t.Fatal(err)
		}
		clk.Advance(3 * time.Second) // 11s: past the old bound, nothing due
		sweep(s, 0, 2)
		clk.Advance(5 * time.Second) // 16s
		sweep(s, 1, 1)
		clk.Advance(3 * time.Second) // 19s
		sweep(s, 1, 0)
	})

	t.Run("unregistering the soonest", func(t *testing.T) {
		clk, s := fresh()
		short := lease(s, "short", 10*time.Second)
		lease(s, "long", 20*time.Second)
		if err := s.Unregister(short); err != nil {
			t.Fatal(err)
		}
		clk.Advance(11 * time.Second)
		sweep(s, 0, 1)
		clk.Advance(10 * time.Second)
		sweep(s, 1, 0)
	})

	t.Run("a shorter lease than any held", func(t *testing.T) {
		clk, s := fresh()
		lease(s, "long", 30*time.Second)
		clk.Advance(time.Second)
		sweep(s, 0, 1)
		lease(s, "short", 2*time.Second) // expires at 3s
		clk.Advance(3 * time.Second)
		sweep(s, 1, 1)
		// Re-registering a key with a later expiry leaves the bound low, not wrong.
		lease(s, "long", 5*time.Second) // at 4s: expires at 9s
		clk.Advance(4 * time.Second)
		sweep(s, 0, 1)
		clk.Advance(2 * time.Second)
		sweep(s, 1, 0)
	})

	t.Run("the empty store", func(t *testing.T) {
		clk, s := fresh()
		sweep(s, 0, 0)
		clk.Advance(time.Hour)
		sweep(s, 0, 0)
		lease(s, "late", time.Second) // the first lease after a drained table sets the bound
		sweep(s, 0, 1)
		clk.Advance(2 * time.Second)
		sweep(s, 1, 0)
		lease(s, "again", time.Hour)
		clk.Advance(time.Minute)
		sweep(s, 0, 1)
	})
}

func TestStoreReRegisterRenews(t *testing.T) {
	clk := simtime.NewVirtual(epoch)
	s := NewStore(clk, 10*time.Second)
	d := desc("n1", "svc")
	_ = s.Register(d)
	clk.Advance(8 * time.Second)
	_ = s.Register(d) // re-register refreshes the lease
	clk.Advance(8 * time.Second)
	if got, _ := s.Lookup(&svcdesc.Query{}); len(got) != 1 {
		t.Fatal("re-registration did not refresh lease")
	}
}

// --- centralized organization ---

func newCentralPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	fabric := transport.NewFabric()
	st := transport.NewMem(fabric)
	l, err := st.Listen("registry")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewStore(nil, 0), l)
	cli := NewClient(transport.NewMem(fabric), "registry")
	t.Cleanup(func() {
		_ = cli.Close()
		_ = srv.Close()
		_ = st.Close()
	})
	return srv, cli
}

func TestCentralRegisterLookup(t *testing.T) {
	_, cli := newCentralPair(t)
	if err := cli.Register(desc("n1", "sensor/bp")); err != nil {
		t.Fatal(err)
	}
	if err := cli.Register(desc("n2", "printer")); err != nil {
		t.Fatal(err)
	}
	got, err := cli.Lookup(&svcdesc.Query{Name: "printer"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Provider != "n2" {
		t.Fatalf("Lookup = %+v", got)
	}
	if got[0].Attributes["unit"] != "mmHg" {
		t.Fatal("attributes lost over the wire")
	}
}

func TestCentralUnregisterRenew(t *testing.T) {
	_, cli := newCentralPair(t)
	d := desc("n1", "svc")
	if err := cli.Register(d); err != nil {
		t.Fatal(err)
	}
	if err := cli.Renew(d.Key()); err != nil {
		t.Fatal(err)
	}
	if err := cli.Unregister(d.Key()); err != nil {
		t.Fatal(err)
	}
	if err := cli.Unregister(d.Key()); err == nil {
		t.Fatal("double unregister accepted")
	}
	if err := cli.Renew("bogus|key|x"); err == nil {
		t.Fatal("renew of unknown key accepted")
	}
}

func TestCentralLookupEmpty(t *testing.T) {
	_, cli := newCentralPair(t)
	got, err := cli.Lookup(&svcdesc.Query{Name: "nothing"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d", len(got))
	}
}

func TestCentralInvalidRegister(t *testing.T) {
	_, cli := newCentralPair(t)
	if err := cli.Register(&svcdesc.Description{}); err == nil {
		t.Fatal("invalid description accepted")
	}
}

func TestCentralClientClosed(t *testing.T) {
	_, cli := newCentralPair(t)
	_ = cli.Close()
	if _, err := cli.Lookup(&svcdesc.Query{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestCentralDialFailure(t *testing.T) {
	cli := NewClient(transport.NewMem(transport.NewFabric()), "nowhere")
	defer cli.Close()
	if _, err := cli.Lookup(&svcdesc.Query{}); err == nil {
		t.Fatal("lookup against missing registry succeeded")
	}
}

// TestCentralLookupUndecodableReplyCountsError: a registry reply that is not
// a description list fails the lookup and is counted as an error, so the
// lookup counters still add up to the queries made.
func TestCentralLookupUndecodableReplyCountsError(t *testing.T) {
	fabric := transport.NewFabric()
	l, err := transport.NewMem(fabric).Listen("registry")
	if err != nil {
		t.Fatal(err)
	}
	// A stand-in registry that answers every lookup with garbage.
	srv := endpoint.NewServer(l, endpoint.ServerOptions{Kinds: []wire.Kind{wire.KindControl}})
	defer srv.Close()
	srv.Handle(TopicLookup, func(*wire.Message) (*wire.Message, error) {
		return endpoint.NewReply([]byte("not a description list")), nil
	})
	reg := obs.NewRegistry()
	cli := NewInstrumentedClient(transport.NewMem(fabric), "registry", reg, nil)
	defer cli.Close()

	if got, err := cli.Lookup(&svcdesc.Query{Name: "svc"}); err == nil {
		t.Fatalf("lookup decoded garbage into %v", got)
	}
	for name, want := range map[string]int64{"queries": 1, "errors": 1, "hits": 0, "misses": 0} {
		if got := reg.Counter("discovery.lookup." + name).Value(); got != want {
			t.Errorf("discovery.lookup.%s = %d, want %d", name, got, want)
		}
	}
}

// --- distributed (flood) organization ---

// floodField builds n nodes in a line with spacing 10 and range 12, each
// with a mux and an agent.
func floodField(t *testing.T, n int, cfg AgentConfig) (*netsim.Network, []*Agent) {
	t.Helper()
	return floodFieldEach(t, n, func(int) AgentConfig { return cfg })
}

// floodFieldEach is floodField with agent i configured by cfg(i).
func floodFieldEach(t *testing.T, n int, cfg func(i int) AgentConfig) (*netsim.Network, []*Agent) {
	t.Helper()
	net := netsim.New(netsim.Config{Range: 12, Unlimited: true})
	t.Cleanup(net.Close)
	agents := make([]*Agent, n)
	for i := 0; i < n; i++ {
		id := netsim.NodeID(fmt.Sprintf("n%d", i))
		if err := net.AddNode(id, netsim.Position{X: float64(i) * 10}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		id := netsim.NodeID(fmt.Sprintf("n%d", i))
		mux, err := netmux.New(net, id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mux.Close)
		a := NewAgent(mux, cfg(i))
		t.Cleanup(func() { _ = a.Close() })
		agents[i] = a
	}
	return net, agents
}

func TestFloodLookupAcrossHops(t *testing.T) {
	_, agents := floodField(t, 5, AgentConfig{CollectWindow: 200 * time.Millisecond})
	d := desc("n4", "sensor/bp")
	if err := agents[4].Register(d); err != nil {
		t.Fatal(err)
	}
	got, err := agents[0].Lookup(&svcdesc.Query{Name: "sensor/*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Provider != "n4" {
		t.Fatalf("Lookup = %+v", got)
	}
}

func TestFloodLookupLocalIsFree(t *testing.T) {
	_, agents := floodField(t, 2, AgentConfig{CollectWindow: 50 * time.Millisecond})
	if err := agents[0].Register(desc("n0", "svc")); err != nil {
		t.Fatal(err)
	}
	got, err := agents[0].Lookup(&svcdesc.Query{Name: "svc"})
	if err != nil || len(got) != 1 {
		t.Fatalf("local lookup = %v, %v", got, err)
	}
}

func TestFloodTTLLimitsReach(t *testing.T) {
	_, agents := floodField(t, 6, AgentConfig{QueryTTL: 2, CollectWindow: 150 * time.Millisecond})
	if err := agents[5].Register(desc("n5", "far-svc")); err != nil {
		t.Fatal(err)
	}
	got, err := agents[0].Lookup(&svcdesc.Query{Name: "far-svc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("TTL 2 should not reach 5 hops away, got %+v", got)
	}
}

func TestFloodMultipleSuppliers(t *testing.T) {
	_, agents := floodField(t, 4, AgentConfig{CollectWindow: 200 * time.Millisecond})
	for i := 1; i < 4; i++ {
		if err := agents[i].Register(desc(fmt.Sprintf("n%d", i), "svc")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := agents[0].Lookup(&svcdesc.Query{Name: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("found %d suppliers, want 3", len(got))
	}
}

func TestFloodMaxResultsEndsEarly(t *testing.T) {
	_, agents := floodField(t, 3, AgentConfig{CollectWindow: 5 * time.Second, MaxResults: 1})
	if err := agents[1].Register(desc("n1", "svc")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := agents[0].Lookup(&svcdesc.Query{Name: "svc"})
	if err != nil || len(got) != 1 {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("MaxResults did not end collection early")
	}
}

// A lookup that ends at MaxResults stops its window's deadline and retry
// timers, so none is left on the clock: the virtual clock never moves, so
// only the reply can end the lookup.
func TestFloodLookupAtMaxResultsLeavesNoTimer(t *testing.T) {
	clk := simtime.NewVirtual(time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC))
	_, agents := floodField(t, 2, AgentConfig{Clock: clk, CollectWindow: time.Second, MaxResults: 1, QueryRetry: true})
	if err := agents[1].Register(desc("n1", "svc")); err != nil {
		t.Fatal(err)
	}
	got, err := agents[0].Lookup(&svcdesc.Query{Name: "svc"})
	if err != nil || len(got) != 1 {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	if n := clk.Pending(); n != 0 {
		t.Fatalf("Pending() = %d after a lookup ended at MaxResults, want 0", n)
	}
}

func TestFloodAgentClosed(t *testing.T) {
	_, agents := floodField(t, 2, AgentConfig{})
	_ = agents[0].Close()
	_ = agents[0].Close() // idempotent
	if _, err := agents[0].Lookup(&svcdesc.Query{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestFloodDedupSuppression(t *testing.T) {
	// Dense clique: the query reaches every agent directly and via
	// forwarders; each agent must process it exactly once.
	net := netsim.New(netsim.Config{Range: 100, Unlimited: true})
	t.Cleanup(net.Close)
	var agents []*Agent
	for i := 0; i < 4; i++ {
		id := netsim.NodeID(fmt.Sprintf("n%d", i))
		if err := net.AddNode(id, netsim.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		mux, err := netmux.New(net, netsim.NodeID(fmt.Sprintf("n%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mux.Close)
		a := NewAgent(mux, AgentConfig{CollectWindow: 150 * time.Millisecond})
		t.Cleanup(func() { _ = a.Close() })
		agents = append(agents, a)
	}
	if err := agents[3].Register(desc("n3", "svc")); err != nil {
		t.Fatal(err)
	}
	got, err := agents[0].Lookup(&svcdesc.Query{Name: "svc"})
	if err != nil || len(got) != 1 {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	// n3 received the query from n0 directly and from n1/n2 forwards, but
	// must have replied exactly once.
	if sent := floodCount(agents[3], "reply_sent"); sent != 1 {
		t.Fatalf("n3 replied %d times, want 1", sent)
	}
}

// failingRegistry always errors (a crashed registry).
type failingRegistry struct{}

func (failingRegistry) Register(*svcdesc.Description) error { return errors.New("registry down") }
func (failingRegistry) Unregister(string) error             { return errors.New("registry down") }
func (failingRegistry) Renew(string) error                  { return errors.New("registry down") }
func (failingRegistry) Lookup(*svcdesc.Query) ([]*svcdesc.Description, error) {
	return nil, errors.New("registry down")
}
func (failingRegistry) Close() error { return nil }

// --- adaptive organization ---

func adaptiveFixture(t *testing.T, central Resolver, density int, policy Policy) (*Adaptive, []*Agent) {
	t.Helper()
	_, agents := floodField(t, 3, AgentConfig{CollectWindow: 150 * time.Millisecond})
	a := NewAdaptive(central, agents[0], func() int { return density }, policy, nil)
	return a, agents
}

func TestAdaptivePrefersCentralWhenDense(t *testing.T) {
	srv, cli := newCentralPair(t)
	_ = srv
	ad, _ := adaptiveFixture(t, cli, 10, DensityPolicy(6))
	if err := ad.Register(desc("n0", "svc")); err != nil {
		t.Fatal(err)
	}
	got, err := ad.Lookup(&svcdesc.Query{Name: "svc"})
	if err != nil || len(got) != 1 {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	if decisions(ad)[string(ModeCentral)] != 1 {
		t.Fatalf("decisions = %v", decisions(ad))
	}
}

func TestAdaptiveFloodsWhenSparse(t *testing.T) {
	_, cli := newCentralPair(t)
	ad, agents := adaptiveFixture(t, cli, 1, DensityPolicy(6))
	if err := agents[1].Register(desc("n1", "svc")); err != nil {
		t.Fatal(err)
	}
	got, err := ad.Lookup(&svcdesc.Query{Name: "svc"})
	if err != nil || len(got) != 1 {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	if decisions(ad)[string(ModeFlood)] != 1 {
		t.Fatalf("decisions = %v", decisions(ad))
	}
}

func TestAdaptiveFailsOverToFlood(t *testing.T) {
	ad, agents := adaptiveFixture(t, failingRegistry{}, 10, DensityPolicy(6))
	if err := agents[1].Register(desc("n1", "svc")); err != nil {
		t.Fatal(err)
	}
	got, err := ad.Lookup(&svcdesc.Query{Name: "svc"})
	if err != nil || len(got) != 1 {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	snap := decisions(ad)
	if snap["central_failover"] != 1 || snap[string(ModeFlood)] != 1 {
		t.Fatalf("decisions = %v", snap)
	}
	// Health is now false: next lookup goes straight to flood.
	if _, err := ad.Lookup(&svcdesc.Query{Name: "svc"}); err != nil {
		t.Fatal(err)
	}
	if snap := decisions(ad); snap["central_failover"] != 1 {
		t.Fatalf("unhealthy central retried immediately: %v", snap)
	}
}

func TestAdaptiveBackfillsEmptyCentralFromFlood(t *testing.T) {
	// The central registry is healthy but knows nothing (its leases expired);
	// the supplier is alive and flood-reachable. The lookup must backfill.
	_, cli := newCentralPair(t)
	ad, agents := adaptiveFixture(t, cli, 10, DensityPolicy(6))
	if err := agents[1].Register(desc("n1", "svc")); err != nil {
		t.Fatal(err)
	}
	got, err := ad.Lookup(&svcdesc.Query{Name: "svc"})
	if err != nil || len(got) != 1 {
		t.Fatalf("lookup = %v, %v (empty central should backfill from flood)", got, err)
	}
	snap := decisions(ad)
	if snap["central_empty_flood"] != 1 {
		t.Fatalf("decisions = %v", snap)
	}
	// Central stays marked healthy: emptiness is an answer, not a failure.
	if _, err := ad.Lookup(&svcdesc.Query{Name: "no-such"}); err != nil {
		t.Fatal(err)
	}
	if snap := decisions(ad); snap["central_failover"] != 0 {
		t.Fatalf("empty central treated as failure: %v", snap)
	}
}

func TestAdaptiveWithoutCentral(t *testing.T) {
	ad, agents := adaptiveFixture(t, nil, 10, DensityPolicy(1))
	if err := agents[0].Register(desc("n0", "svc")); err != nil {
		t.Fatal(err)
	}
	got, err := ad.Lookup(&svcdesc.Query{Name: "svc"})
	if err != nil || len(got) != 1 {
		t.Fatalf("lookup = %v, %v", got, err)
	}
}

func TestAdaptivePinnedPolicies(t *testing.T) {
	pol := DensityPolicy(5)
	if pol(Env{Density: 5, CentralHealthy: true}) != ModeCentral {
		t.Fatal("dense healthy should pick central")
	}
	if pol(Env{Density: 5, CentralHealthy: false}) != ModeFlood {
		t.Fatal("unhealthy central should flood")
	}
	if pol(Env{Density: 2, CentralHealthy: true}) != ModeFlood {
		t.Fatal("sparse should flood")
	}
}

func TestFloodMsgGarbage(t *testing.T) {
	if _, err := decodeFloodMsg(nil); err == nil {
		t.Fatal("nil decoded")
	}
	if _, err := decodeFloodMsg([]byte{ProtoDiscovery, '{'}); err == nil {
		t.Fatal("truncated json decoded")
	}
	if _, err := decodeFloodMsg([]byte{0x00, '{', '}'}); err == nil {
		t.Fatal("wrong magic decoded")
	}
}

func TestFloodMsgRoundTrip(t *testing.T) {
	in := &floodMsg{Type: floodQuery, QID: 9, Origin: "n0", TTL: 3, Path: []string{"n0", "n1"}, Query: []byte("<query/>")}
	out, err := decodeFloodMsg(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.QID != in.QID || out.Origin != in.Origin ||
		out.TTL != in.TTL || len(out.Path) != 2 || string(out.Query) != "<query/>" {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestUnknownTopicError(t *testing.T) {
	fabric := transport.NewFabric()
	st := transport.NewMem(fabric)
	l, err := st.Listen("registry")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewStore(nil, 0), l)
	defer srv.Close()
	conn, err := transport.NewMem(fabric).Dial("registry")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&wire.Message{ID: 1, Kind: wire.KindControl, Topic: "disc.bogus"}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != wire.KindError || !strings.Contains(string(reply.Payload), "unknown topic") {
		t.Fatalf("reply = %+v", reply)
	}
}

// TestFloodLookupUnderLoss: the distributed organization's redundancy (every
// neighbour rebroadcasts) makes queries survive a lossy radio; repeated
// lookups converge on finding the service even at 20% per-packet loss.
func TestFloodLookupUnderLoss(t *testing.T) {
	net := netsim.New(netsim.Config{Range: 100, Unlimited: true, Seed: 77})
	net.SetLossRate(0.2)
	t.Cleanup(net.Close)
	// A dense clique of 6 nodes: many redundant paths.
	var agents []*Agent
	for i := 0; i < 6; i++ {
		id := netsim.NodeID(fmt.Sprintf("n%d", i))
		if err := net.AddNode(id, netsim.Position{X: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		mux, err := netmux.New(net, netsim.NodeID(fmt.Sprintf("n%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mux.Close)
		a := NewAgent(mux, AgentConfig{CollectWindow: 300 * time.Millisecond, MaxResults: 1})
		t.Cleanup(func() { _ = a.Close() })
		agents = append(agents, a)
	}
	if err := agents[5].Register(desc("n5", "lossy-svc")); err != nil {
		t.Fatal(err)
	}
	// A real client retries a failed discovery; with one retry the find
	// probability under 20% loss is very high. Demand a clear majority so
	// the test stays robust to seed and scheduler drift.
	lookupWithRetry := func() bool {
		for attempt := 0; attempt < 2; attempt++ {
			got, err := agents[0].Lookup(&svcdesc.Query{Name: "lossy-svc"})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 1 {
				return true
			}
		}
		return false
	}
	found := 0
	const tries = 8
	for i := 0; i < tries; i++ {
		if lookupWithRetry() {
			found++
		}
	}
	if found < 6 {
		t.Fatalf("found only %d/%d under 20%% loss (with retry)", found, tries)
	}
}

// TestFloodQueryRetry drives the QueryRetry knob deterministically: the
// first flood is swallowed by total packet loss, the retry (halfway through
// the collect window, on a fresh QID) goes out after the radio heals, and
// the lookup still succeeds within the original window.
func TestFloodQueryRetry(t *testing.T) {
	clk := simtime.NewVirtual(epoch)
	net := netsim.New(netsim.Config{Range: 12, Unlimited: true, Clock: clk})
	t.Cleanup(net.Close)
	ids := []netsim.NodeID{"n0", "n1"}
	for i, id := range ids {
		if err := net.AddNode(id, netsim.Position{X: float64(i) * 10}); err != nil {
			t.Fatal(err)
		}
	}
	agents := make([]*Agent, len(ids))
	for i, id := range ids {
		mux, err := netmux.New(net, id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mux.Close)
		a := NewAgent(mux, AgentConfig{
			CollectWindow: time.Second,
			MaxResults:    1,
			QueryRetry:    true,
			Clock:         clk,
		})
		t.Cleanup(func() { _ = a.Close() })
		agents[i] = a
	}
	if err := agents[1].Register(desc("n1", "sensor/hr")); err != nil {
		t.Fatal(err)
	}

	net.SetLossRate(1) // the first flood vanishes into the ether
	type lookupResult struct {
		descs []*svcdesc.Description
		err   error
	}
	done := make(chan lookupResult, 1)
	go func() {
		descs, err := agents[0].Lookup(&svcdesc.Query{Name: "sensor/hr"})
		done <- lookupResult{descs, err}
	}()

	// The lookup parks two timers: the collect-window deadline and the
	// half-window retry.
	waitTimers := time.Now().Add(5 * time.Second)
	for clk.Pending() < 2 {
		if time.Now().After(waitTimers) {
			t.Fatalf("lookup never parked its timers (pending=%d)", clk.Pending())
		}
		time.Sleep(time.Millisecond)
	}
	net.SetLossRate(0) // radio heals before the retry fires
	clk.Advance(500 * time.Millisecond)

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.descs) != 1 || r.descs[0].Provider != "n1" {
			t.Fatalf("retry lookup results = %v", r.descs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lookup never returned after retry")
	}
	if got := floodCount(agents[0], "query_retry"); got != 1 {
		t.Fatalf("query_retry = %d, want 1", got)
	}
	if got := floodCount(agents[0], "query_sent"); got != 1 {
		t.Fatalf("query_sent = %d, want 1 (retries are counted separately)", got)
	}
}

// TestFloodTracePropagatesAcrossNetmuxHop pins cross-node trace propagation
// through the flood protocol's JSON envelope: a traced Lookup on the origin
// and traced agents on the remotes must produce one connected trace — every
// remote handle_query/handle_reply span shares the origin's trace ID, and
// parent links follow the flood path back to the origin's round span.
func TestFloodTracePropagatesAcrossNetmuxHop(t *testing.T) {
	col := trace.NewCollector(256)
	tracers := make([]*trace.Tracer, 3)
	for i := range tracers {
		tracers[i] = trace.New(trace.Options{Name: fmt.Sprintf("n%d", i), Collector: col})
	}
	_, agents := floodFieldEach(t, 3, func(i int) AgentConfig {
		return AgentConfig{CollectWindow: 200 * time.Millisecond, Tracer: tracers[i]}
	})
	if err := agents[2].Register(desc("n2", "sensor/bp")); err != nil {
		t.Fatal(err)
	}
	got, err := agents[0].Lookup(&svcdesc.Query{Name: "sensor/*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("Lookup = %+v", got)
	}

	spans := col.Spans()
	byID := make(map[uint64]trace.Span, len(spans))
	var lookup *trace.Span
	for i := range spans {
		byID[spans[i].SpanID] = spans[i]
		if spans[i].Name == "flood.lookup" {
			lookup = &spans[i]
		}
	}
	if lookup == nil {
		t.Fatalf("no flood.lookup span; got %d spans", len(spans))
	}
	remoteHandles := 0
	for _, sp := range spans {
		if sp.TraceID != lookup.TraceID {
			t.Errorf("span %s on %s has trace %x, want %x", sp.Name, sp.Node, sp.TraceID, lookup.TraceID)
			continue
		}
		// Every non-root span's parent must exist in the collected set.
		if sp.ParentID != 0 {
			if _, ok := byID[sp.ParentID]; !ok && sp.SpanID != lookup.SpanID {
				t.Errorf("span %s on %s: parent %x not in trace", sp.Name, sp.Node, sp.ParentID)
			}
		}
		if sp.Name == "flood.handle_query" && sp.Node != "n0" {
			remoteHandles++
		}
	}
	if remoteHandles == 0 {
		t.Error("no remote flood.handle_query spans — trace context did not cross the netmux hop")
	}
	// The remote supplier (n2, two hops out) must appear in the trace.
	seenN2 := false
	for _, sp := range spans {
		if sp.Node == "n2" {
			seenN2 = true
		}
	}
	if !seenN2 {
		t.Error("supplier node n2 recorded no spans in the lookup trace")
	}
}

// slowRegister is a Resolver backing whose Register takes 250 ms of the
// server's virtual clock.
type slowRegister struct {
	*Store
	clock *simtime.Virtual
}

func (s slowRegister) Register(d *svcdesc.Description) error {
	s.clock.Advance(250 * time.Millisecond)
	return s.Store.Register(d)
}

// A registry server on a virtual clock times its dispatch metrics on that
// clock, as it does its leases: a Register that takes 250 virtual
// milliseconds records 250 in discovery.server.latency_ms, not the wall time
// the call really took.
func TestServerMetricsUseServerClock(t *testing.T) {
	clock := simtime.NewVirtual(epoch)
	reg := obs.NewRegistry()
	tr := transport.NewMem(transport.NewFabric())
	l, err := tr.Listen("registry")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewResolverServer(slowRegister{NewStore(clock, time.Hour), clock}, l, ServerOptions{Clock: clock, Metrics: reg})
	defer srv.Close() //nolint:errcheck
	c := NewClient(tr, "registry")
	defer c.Close() //nolint:errcheck
	if err := c.Register(desc("n1", "sensor/bp")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram("discovery.server.latency_ms").Summary(); got.Count != 1 || got.Mean < 249 || got.Mean > 251 {
		t.Fatalf("discovery.server.latency_ms = %+v, want one observation of 250", got)
	}
}

// floodCount reads how many flood datagrams of a kind an agent's node
// counted.
func floodCount(a *Agent, kind string) int64 {
	return a.metrics.Counter("discovery.flood." + kind).Value()
}

// decisions reads an adaptive registry's lookups by answering mode from its
// node's registry.
func decisions(ad *Adaptive) map[string]int64 {
	out := map[string]int64{}
	for name, v := range ad.flood.metrics.Snapshot().Counters {
		if mode, ok := strings.CutPrefix(name, "discovery.adaptive."); ok {
			out[mode] = v
		}
	}
	return out
}
