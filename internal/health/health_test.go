package health

import (
	"testing"
	"time"

	"ndsm/internal/discovery"
	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
)

func newTestMonitor(clock simtime.Clock, reg *obs.Registry) *Monitor {
	return NewMonitor(Options{Clock: clock, Registry: reg})
}

func TestUnknownPeerNotSuspect(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	m := newTestMonitor(clock, obs.NewRegistry())
	if m.Suspect("ghost") {
		t.Fatal("never-seen peer must not be suspect")
	}
	if got := phi(m, "ghost"); got != 0 {
		t.Fatalf("phi of unknown peer = %v, want 0", got)
	}
	if m.State("ghost") != Closed {
		t.Fatalf("unknown peer breaker = %v, want closed", m.State("ghost"))
	}
}

func TestPhiGrowsWithSilence(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	m := newTestMonitor(clock, obs.NewRegistry())
	// Regular 50ms heartbeats establish the inter-arrival distribution.
	for i := 0; i < 10; i++ {
		m.Heartbeat("s0")
		clock.Advance(50 * time.Millisecond)
	}
	low := phi(m, "s0")
	if m.Suspect("s0") {
		t.Fatalf("fresh peer suspected (phi=%v)", low)
	}
	clock.Advance(400 * time.Millisecond)
	high := phi(m, "s0")
	if high <= low {
		t.Fatalf("phi did not grow with silence: %v -> %v", low, high)
	}
	if !m.Suspect("s0") {
		t.Fatalf("silent peer not suspected (phi=%v)", high)
	}
	// A fresh heartbeat clears suspicion.
	m.Heartbeat("s0")
	if m.Suspect("s0") {
		t.Fatal("heartbeat did not clear suspicion")
	}
}

func TestFallbackTimeoutCoversColdStart(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	m := newTestMonitor(clock, obs.NewRegistry())
	// One heartbeat: zero inter-arrival samples, so phi cannot fire — only
	// the fixed-timeout fallback can.
	m.Heartbeat("s0")
	clock.Advance(fallbackTimeout)
	if m.Suspect("s0") {
		t.Fatal("suspect before fallback timeout")
	}
	clock.Advance(time.Millisecond)
	if !m.Suspect("s0") {
		t.Fatal("fallback timeout did not mark cold-start peer suspect")
	}
}

func TestBreakerOpensOnConsecutiveFailures(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	reg := obs.NewRegistry()
	m := newTestMonitor(clock, reg)
	if err := m.Allow("s0"); err != nil {
		t.Fatalf("closed circuit rejected call: %v", err)
	}
	m.ReportFailure("s0")
	if m.State("s0") != Closed {
		t.Fatal("one failure should not open (threshold 2)")
	}
	m.ReportFailure("s0")
	if m.State("s0") != Open {
		t.Fatalf("state after threshold failures = %v, want open", m.State("s0"))
	}
	if !m.Suspect("s0") {
		t.Fatal("open circuit must imply suspicion")
	}
	if err := m.Allow("s0"); err == nil {
		t.Fatal("open circuit allowed a call")
	}
	if got := reg.Counter("health.breaker_opened").Value(); got != 1 {
		t.Fatalf("breaker_opened = %d, want 1", got)
	}
}

func TestBreakerHalfOpenProbeBudgetAndRecovery(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	reg := obs.NewRegistry()
	m := newTestMonitor(clock, reg)
	m.ReportFailure("s0")
	m.ReportFailure("s0")
	clock.Advance(openTimeout)
	if err := m.Allow("s0"); err != nil {
		t.Fatalf("half-open circuit rejected first probe: %v", err)
	}
	if m.State("s0") != HalfOpen {
		t.Fatalf("state = %v, want half-open", m.State("s0"))
	}
	// Probe budget is 1: a second concurrent call is rejected.
	if err := m.Allow("s0"); err == nil {
		t.Fatal("half-open circuit exceeded probe budget")
	}
	m.ReportSuccess("s0")
	if m.State("s0") != Closed {
		t.Fatalf("state after probe success = %v, want closed", m.State("s0"))
	}
	if err := m.Allow("s0"); err != nil {
		t.Fatalf("recovered circuit rejected call: %v", err)
	}
	if got := reg.Counter("health.breaker_closed").Value(); got != 1 {
		t.Fatalf("breaker_closed = %d, want 1", got)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	m := newTestMonitor(clock, obs.NewRegistry())
	m.ReportFailure("s0")
	m.ReportFailure("s0")
	clock.Advance(openTimeout)
	if err := m.Allow("s0"); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	m.ReportFailure("s0")
	if m.State("s0") != Open {
		t.Fatalf("state after probe failure = %v, want open", m.State("s0"))
	}
	// The re-opened circuit waits a full OpenTimeout again.
	clock.Advance(100 * time.Millisecond)
	if err := m.Allow("s0"); err == nil {
		t.Fatal("re-opened circuit allowed a call before OpenTimeout")
	}
	clock.Advance(100 * time.Millisecond)
	if err := m.Allow("s0"); err != nil {
		t.Fatalf("circuit stuck open after second OpenTimeout: %v", err)
	}
}

func TestSuccessIsHeartbeat(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	m := newTestMonitor(clock, obs.NewRegistry())
	m.Heartbeat("s0")
	clock.Advance(600 * time.Millisecond)
	if !m.Suspect("s0") {
		t.Fatal("want suspicion after fallback timeout")
	}
	m.ReportSuccess("s0")
	if m.Suspect("s0") {
		t.Fatal("a successful reply is proof of life; suspicion must clear")
	}
}

// fakeRegistry is a canned-response discovery registry.
type fakeRegistry struct {
	descs []*svcdesc.Description
}

func (f *fakeRegistry) Register(*svcdesc.Description) error { return nil }
func (f *fakeRegistry) Unregister(string) error             { return nil }
func (f *fakeRegistry) Renew(string) error                  { return nil }
func (f *fakeRegistry) Lookup(*svcdesc.Query) ([]*svcdesc.Description, error) {
	return f.descs, nil
}
func (f *fakeRegistry) Close() error { return nil }

func TestWatchRegistryHeartbeatsListedProviders(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	reg := obs.NewRegistry()
	m := newTestMonitor(clock, reg)
	inner := &fakeRegistry{descs: []*svcdesc.Description{
		{Name: "svc/x", Provider: "s0"},
		{Name: "svc/x", Provider: "s1"},
	}}
	watched := WatchRegistry(inner, m)
	// Lookups at a steady cadence keep both providers alive.
	for i := 0; i < 5; i++ {
		if _, err := watched.Lookup(&svcdesc.Query{Name: "svc/x"}); err != nil {
			t.Fatal(err)
		}
		clock.Advance(50 * time.Millisecond)
	}
	if m.Suspect("s0") || m.Suspect("s1") {
		t.Fatal("steadily listed providers must not be suspect")
	}
	// s1 drops out of the listings (lease expired / stopped answering).
	inner.descs = inner.descs[:1]
	for i := 0; i < 12; i++ {
		if _, err := watched.Lookup(&svcdesc.Query{Name: "svc/x"}); err != nil {
			t.Fatal(err)
		}
		clock.Advance(50 * time.Millisecond)
	}
	if m.Suspect("s0") {
		t.Fatal("still-listed provider became suspect")
	}
	if !m.Suspect("s1") {
		t.Fatal("unlisted provider never became suspect")
	}
	if got := reg.Counter("health.heartbeats").Value(); got == 0 {
		t.Fatal("watched lookups recorded no heartbeats")
	}
}

// WatchRegistry must pass nil monitors through untouched.
func TestWatchRegistryNilMonitor(t *testing.T) {
	inner := &fakeRegistry{}
	if got := WatchRegistry(inner, nil); got != discovery.Resolver(inner) {
		t.Fatal("nil monitor should return the inner registry unchanged")
	}
}

// phi reads peer's suspicion level as Suspect judges it: 0 for a peer never
// heard from.
func phi(m *Monitor, peer string) float64 {
	now := m.opts.Clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := m.peers[peer]
	if ps == nil {
		return 0
	}
	return m.phiLocked(ps, now)
}
