// End-to-end tracing acceptance: one user-level interact/rpc call, with the
// supplier found through flood discovery over a simulated radio network,
// must yield a single connected causal tree — one trace ID, every span's
// parent present, spans from the consumer, the radio hops, the remote
// discovery handlers, and the rpc server.
package ndsm_test

import (
	"fmt"
	"testing"
	"time"

	"ndsm/internal/discovery"
	"ndsm/internal/interact/rpc"
	"ndsm/internal/interact/tuplespace"
	"ndsm/internal/netmux"
	"ndsm/internal/netsim"
	"ndsm/internal/svcdesc"
	"ndsm/internal/trace"
	"ndsm/internal/transport"
)

func TestRPCThroughDiscoveryConnectedTraceTree(t *testing.T) {
	// One tracer shared by every component, one collector: the merged
	// timeline of the whole simulated world.
	col := trace.NewCollector(1024)
	tr := trace.New(trace.Options{Name: "world", Collector: col})

	// Radio layer: three nodes in a line, ranges only reach neighbours, so
	// the flood query takes a multi-hop path to the supplier.
	net := netsim.New(netsim.Config{Range: 12, Unlimited: true, Tracer: tr})
	t.Cleanup(net.Close)
	agents := make([]*discovery.Agent, 3)
	for i := range agents {
		id := netsim.NodeID(fmt.Sprintf("n%d", i))
		if err := net.AddNode(id, netsim.Position{X: float64(i) * 10}); err != nil {
			t.Fatal(err)
		}
		mux, err := netmux.New(net, id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mux.Close)
		a := discovery.NewAgent(mux, discovery.AgentConfig{CollectWindow: 200 * time.Millisecond, Tracer: tr})
		t.Cleanup(func() { _ = a.Close() })
		agents[i] = a
	}

	// Message layer: the supplier's rpc server on a shared mem fabric; its
	// dialable address doubles as the registered Provider.
	fabric := transport.NewFabric()
	mt := transport.NewMem(fabric)
	t.Cleanup(func() { _ = mt.Close() })
	l, err := mt.Listen("supplier")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(l, tr)
	t.Cleanup(func() { _ = srv.Close() })
	srv.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	if err := agents[2].Register(&svcdesc.Description{
		Name: "sensor/bp", Provider: "supplier", Reliability: 0.9, PowerLevel: 1,
	}); err != nil {
		t.Fatal(err)
	}

	// The user-level operation: discover, dial, call — all under one root.
	root, done := tr.Scope("user.request")
	if root == nil {
		t.Fatal("no root span")
	}
	descs, err := agents[0].Lookup(&svcdesc.Query{Name: "sensor/*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(descs) != 1 || descs[0].Provider != "supplier" {
		t.Fatalf("lookup = %+v", descs)
	}
	cli, err := rpc.Dial(transport.NewMem(fabric), descs[0].Provider, nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	out, err := cli.Call("echo", []byte("ping"), 2*time.Second)
	if err != nil || string(out) != "ping" {
		t.Fatalf("call = %q, %v", out, err)
	}
	done()

	// The tree must be connected: one trace ID across everything, and every
	// non-root parent resolvable within the collected set.
	spans := col.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans collected")
	}
	byID := make(map[uint64]trace.Span, len(spans))
	names := map[string]int{}
	for _, sp := range spans {
		byID[sp.SpanID] = sp
		names[sp.Name]++
	}
	rootCtx := root.Context()
	for _, sp := range spans {
		if sp.TraceID != rootCtx.TraceID {
			t.Errorf("span %s has trace %x, want the single trace %x", sp.Name, sp.TraceID, rootCtx.TraceID)
		}
		if sp.SpanID == rootCtx.SpanID {
			if sp.ParentID != 0 {
				t.Errorf("root span has parent %x", sp.ParentID)
			}
			continue
		}
		if sp.ParentID == 0 {
			t.Errorf("span %s is an orphan root inside the user trace", sp.Name)
			continue
		}
		if _, ok := byID[sp.ParentID]; !ok {
			t.Errorf("span %s: parent %x missing from the collected tree", sp.Name, sp.ParentID)
		}
	}
	// The tree must cover every layer the call crossed.
	for _, want := range []string{
		"user.request",       // the root
		"flood.lookup",       // consumer-side discovery
		"flood.round",        // a flood query round
		"radio.broadcast",    // netsim broadcast hop
		"radio.send",         // netsim unicast reply hop
		"flood.handle_query", // remote discovery handler
		"rpc.call",           // rpc client
		"rpc.serve",          // rpc server, parented across the wire
	} {
		if names[want] == 0 {
			t.Errorf("no %q span in the tree; got %v", want, names)
		}
	}
	// And the rpc server span must hang directly under the rpc client span.
	for _, sp := range spans {
		if sp.Name != "rpc.serve" {
			continue
		}
		parent, ok := byID[sp.ParentID]
		if !ok || parent.Name != "rpc.call" {
			t.Errorf("rpc.serve parent = %+v, want the rpc.call span", parent)
		}
	}
}

// A tuple-space operation joins its caller's trace: with the caller's tracer
// handed to the tuple-space server and client, one Out and one In each yield
// a ts.call client span under the ambient root and a ts.serve server span
// parented on it across the wire.
func TestTupleSpaceJoinsDefaultTrace(t *testing.T) {
	col := trace.NewCollector(64)
	tr := trace.New(trace.Options{Name: "world", Collector: col})

	fabric := transport.NewFabric()
	mt := transport.NewMem(fabric)
	t.Cleanup(func() { _ = mt.Close() })
	l, err := mt.Listen("space")
	if err != nil {
		t.Fatal(err)
	}
	srv := tuplespace.NewServer(tuplespace.NewSpace(nil), l, tr)
	t.Cleanup(func() { _ = srv.Close() })
	cli, err := tuplespace.Dial(transport.NewMem(fabric), "space", tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })

	root, done := tr.Scope("user.request")
	if root == nil {
		t.Fatal("no root span")
	}
	if err := cli.Out(tuplespace.Tuple{"k", "v"}); err != nil {
		t.Fatal(err)
	}
	if got, err := cli.In(tuplespace.Tuple{"k", "*"}, time.Second); err != nil || got[1] != "v" {
		t.Fatalf("In = %v, %v", got, err)
	}
	done()

	spans := col.Spans()
	byID := make(map[uint64]trace.Span, len(spans))
	for _, sp := range spans {
		byID[sp.SpanID] = sp
	}
	calls, serves := 0, 0
	for _, sp := range spans {
		if sp.TraceID != root.Context().TraceID {
			t.Errorf("span %s has trace %x, want %x", sp.Name, sp.TraceID, root.Context().TraceID)
		}
		switch sp.Name {
		case "ts.call":
			calls++
			if sp.ParentID != root.Context().SpanID {
				t.Errorf("ts.call parent = %x, want the root span", sp.ParentID)
			}
		case "ts.serve":
			serves++
			if parent := byID[sp.ParentID]; parent.Name != "ts.call" {
				t.Errorf("ts.serve parent = %+v, want a ts.call span", parent)
			}
		}
	}
	if calls != 2 || serves != 2 {
		t.Fatalf("%d ts.call and %d ts.serve spans, want 2 and 2: %+v", calls, serves, spans)
	}
}
