// End-to-end telemetry acceptance: a three-node simulated field publishes
// per-node metrics in-band — reports are ordinary requests over the same
// simulated radio the workload uses — into an aggregator hosted on one of
// the nodes' existing listeners. The merged cluster view must carry every
// node's request series with sim-time-monotone timestamps, and killing a
// node must flip it fresh→stale within the detection bound.
package ndsm_test

import (
	"testing"
	"time"

	"ndsm/internal/core"
	"ndsm/internal/discovery"
	"ndsm/internal/endpoint"
	"ndsm/internal/netsim"
	"ndsm/internal/obs"
	"ndsm/internal/qos"
	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
	"ndsm/internal/telemetry"
	"ndsm/internal/transport"
)

func TestTelemetryClusterE2E(t *testing.T) {
	const publishEvery = time.Second // virtual
	const staleAfter = 5 * publishEvery / 2

	// Radio layer: three nodes all in range (the plane under test is
	// telemetry, not multi-hop routing).
	net := netsim.New(netsim.Config{Range: 500, InboxSize: 1024, Unlimited: true})
	t.Cleanup(net.Close)

	// Discovery is a shared in-process store; requests and telemetry go over
	// the simulated radio via each node's sim transport.
	store := discovery.NewStore(nil, 0)
	// Telemetry runs on a virtual clock: publish timestamps and freshness
	// verdicts land on a deterministic sim timeline. The transports
	// underneath still run wall time.
	vclock := simtime.NewVirtual(time.Unix(0, 0))

	ids := []string{"n0", "n1", "n2"}
	nodes := make(map[string]*core.Node, len(ids))
	pubs := make(map[string]*telemetry.Publisher, len(ids))
	var agg *telemetry.Aggregator
	for i, id := range ids {
		if err := net.AddNode(netsim.NodeID(id), netsim.Position{X: float64(i) * 10}); err != nil {
			t.Fatal(err)
		}
		tr, err := transport.NewSim(net, netsim.NodeID(id), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = tr.Close() })
		// A per-node registry is what gives the aggregator per-node
		// series instead of one merged blur.
		metrics := obs.NewRegistry()
		node, err := core.NewNode(core.Config{
			Name:      id,
			Transport: tr,
			Registry:  store,
			Metrics:   metrics,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		nodes[id] = node
		if err := node.Serve(&svcdesc.Description{
			Name: "svc/" + id, Reliability: 0.9, PowerLevel: 1,
		}, func(p []byte) ([]byte, error) { return append([]byte(id+":"), p...), nil }); err != nil {
			t.Fatal(err)
		}

		if id == "n0" {
			// The aggregator rides n0's existing listener: no new port, no
			// side protocol — telemetry.Topic is just another topic.
			agg = telemetry.NewAggregator(telemetry.AggregatorOptions{
				Clock:      vclock,
				StaleAfter: staleAfter,
				Registry:   obs.NewRegistry(),
			})
			node.HandleTopic(telemetry.Topic, agg.Handler())
		}

		caller, err := endpoint.NewCaller(tr, "n0", endpoint.CallerOptions{Redial: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = caller.Close() })
		pub, err := telemetry.NewPublisher(telemetry.PublisherOptions{
			Node:     id,
			Registry: metrics,
			Clock:    vclock,
			Send:     telemetry.CallerSend(caller, id, "n0", 2*time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = pub.Close() })
		pubs[id] = pub
	}

	// Workload ring: each node binds its successor's service, so every node
	// accumulates server-side request counters.
	bindings := make(map[string]*core.Binding, len(ids))
	for i, id := range ids {
		next := ids[(i+1)%len(ids)]
		b, err := nodes[id].Bind(&qos.Spec{Query: svcdesc.Query{Name: "svc/" + next}}, core.BindOptions{})
		if err != nil {
			t.Fatalf("bind %s->%s: %v", id, next, err)
		}
		t.Cleanup(func() { _ = b.Close() })
		bindings[id] = b
	}

	// Drive rounds: requests around the ring, then one publish interval.
	round := func(alive map[string]bool) {
		t.Helper()
		for _, id := range ids {
			if !alive[id] {
				continue
			}
			if _, err := bindings[id].Request([]byte("ping")); err != nil && alive[ids[(indexOf(ids, id)+1)%len(ids)]] {
				t.Fatalf("%s request: %v", id, err)
			}
		}
		vclock.Advance(publishEvery)
		for _, id := range ids {
			if !alive[id] {
				continue
			}
			_ = pubs[id].Publish() // best-effort, like Start's loop
		}
	}
	all := map[string]bool{"n0": true, "n1": true, "n2": true}
	for i := 0; i < 4; i++ {
		round(all)
	}

	// Every node must appear in the merged view with a non-empty request
	// series whose timestamps are strictly monotone in sim time.
	view := agg.View()
	if len(view.Nodes) != len(ids) {
		t.Fatalf("cluster view has %d nodes (%v), want %d", len(view.Nodes), agg.Nodes(), len(ids))
	}
	for _, nv := range view.Nodes {
		if !nv.Fresh {
			t.Errorf("%s not fresh while publishing", nv.Node)
		}
		pts := nv.Series["core.node.requests"]
		if len(pts) == 0 {
			t.Fatalf("%s has no core.node.requests series; series: %v", nv.Node, seriesNames(nv))
		}
		for i := 1; i < len(pts); i++ {
			if !pts[i-1].T.Before(pts[i].T) {
				t.Errorf("%s series timestamps not monotone: %v then %v", nv.Node, pts[i-1].T, pts[i].T)
			}
			if pts[i].V < pts[i-1].V {
				t.Errorf("%s cumulative request count decreased: %v then %v", nv.Node, pts[i-1].V, pts[i].V)
			}
		}
		if last := pts[len(pts)-1]; last.V <= 0 {
			t.Errorf("%s served no requests according to telemetry", nv.Node)
		}
	}

	// Kill n2: its radio goes dark, so publishes stop and the aggregator
	// must mark it stale within the bound while the survivors stay fresh.
	if err := net.Kill("n2"); err != nil {
		t.Fatal(err)
	}
	if !agg.Fresh("n2") {
		t.Fatal("n2 stale immediately after kill — before the horizon passed")
	}
	alive := map[string]bool{"n0": true, "n1": true}
	staleWithin := int(staleAfter/publishEvery) + 1
	for i := 0; i < staleWithin; i++ {
		round(alive)
	}
	if agg.Fresh("n2") {
		t.Fatalf("n2 still fresh %d publish intervals after kill (bound %v)", staleWithin, staleAfter)
	}
	for _, id := range []string{"n0", "n1"} {
		if !agg.Fresh(id) {
			t.Errorf("%s went stale though it kept publishing", id)
		}
	}
}

func indexOf(ids []string, id string) int {
	for i, v := range ids {
		if v == id {
			return i
		}
	}
	return -1
}

func seriesNames(nv telemetry.NodeView) []string {
	out := make([]string, 0, len(nv.Series))
	for name := range nv.Series {
		out = append(out, name)
	}
	return out
}

// TestTelemetryDisabledZeroAlloc guards the tentpole's cost contract: with
// no publisher running, the request hot path must allocate exactly what it
// allocates in a telemetry-free process. Publishing is out-of-band by
// construction — nothing on the request path should even observe that a
// publisher was built.
func TestTelemetryDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector, and the request path is pooled")
	}
	setup := func(withPublisher bool) (*core.Binding, func()) {
		fabric := transport.NewFabric()
		store := discovery.NewStore(nil, 0)
		reg := obs.NewRegistry()
		sup, err := core.NewNode(core.Config{Name: "sup", Transport: transport.NewMem(fabric), Registry: store, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if err := sup.Serve(&svcdesc.Description{Name: "svc", Reliability: 0.9, PowerLevel: 1},
			func(p []byte) ([]byte, error) { return p, nil }); err != nil {
			t.Fatal(err)
		}
		con, err := core.NewNode(core.Config{Name: "con", Transport: transport.NewMem(fabric), Registry: store, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		binding, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "svc"}}, core.BindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cleanup := func() { _ = binding.Close(); _ = con.Close(); _ = sup.Close() }
		if withPublisher {
			// Constructed but never started: the telemetry-off configuration
			// of a node that could publish.
			pub, err := telemetry.NewPublisher(telemetry.PublisherOptions{
				Node:     "sup",
				Registry: reg,
				Send:     func(*telemetry.Report) error { return nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			old := cleanup
			cleanup = func() { _ = pub.Close(); old() }
		}
		return binding, cleanup
	}

	measure := func(withPublisher bool) float64 {
		binding, cleanup := setup(withPublisher)
		defer cleanup()
		payload := []byte("ping")
		if _, err := binding.Request(payload); err != nil { // warm the path
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := binding.Request(payload); err != nil {
				t.Fatal(err)
			}
		})
	}

	bare := measure(false)
	armed := measure(true)
	if armed > bare {
		t.Fatalf("idle telemetry costs the hot path: %.1f allocs/op with publisher built vs %.1f without", armed, bare)
	}
	t.Logf("request hot path: %.1f allocs/op (telemetry idle and absent identical: %v)", bare, armed == bare)
}
