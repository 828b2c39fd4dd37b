package endpoint_test

import (
	"sync"
	"testing"
	"time"

	"ndsm/internal/endpoint"
	"ndsm/internal/health"
	"ndsm/internal/obs"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// TestShedBurstKeepsRealCircuitClosed pins the shed/breaker contract against
// the real health.Monitor: a shed is a deliberate, healthy answer from the
// peer, so a shed burst far past FailureThreshold must leave the circuit
// closed and the peer reachable the moment capacity frees.
func TestShedBurstKeepsRealCircuitClosed(t *testing.T) {
	reg := obs.NewRegistry()
	mon := health.NewMonitor(health.Options{Registry: reg})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)

	tr := transport.NewMem(transport.NewFabric())
	l, err := tr.Listen("srv")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := endpoint.NewServer(l, endpoint.ServerOptions{Name: "srv", MaxInFlight: 1, Metrics: reg})
	c, err := endpoint.NewCaller(tr, "srv", endpoint.CallerOptions{
		Interceptors: []endpoint.ClientInterceptor{
			endpoint.WithBreaker(mon, "srv", reg, "client"),
		},
	})
	if err != nil {
		t.Fatalf("caller: %v", err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		_ = s.Close()
	})
	s.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return &wire.Message{Kind: wire.KindReply}, nil
	})

	first := c.Go(&endpoint.Call{Topic: "work", Timeout: 5 * time.Second})
	<-entered
	for i := 0; i < 6; i++ { // 3× the failure threshold
		if _, err := c.Do(&endpoint.Call{Topic: "work", Timeout: 5 * time.Second}); !endpoint.IsShed(err) {
			t.Fatalf("burst call %d: got %v, want shed", i, err)
		}
	}
	if st := mon.State("srv"); st != health.Closed {
		t.Fatalf("circuit %v after shed burst, want closed", st)
	}
	unblock()
	if _, err := first.Wait(); err != nil {
		t.Fatalf("first: %v", err)
	}
	if _, err := c.Do(&endpoint.Call{Topic: "work", Timeout: 5 * time.Second}); err != nil {
		t.Fatalf("post-burst call: %v", err)
	}
}
