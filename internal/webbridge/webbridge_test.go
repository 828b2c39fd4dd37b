package webbridge

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"sync/atomic"
	"time"

	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ndsm/internal/core"
	"ndsm/internal/discovery"
	"ndsm/internal/endpoint"
	"ndsm/internal/health"
	"ndsm/internal/netmux"
	"ndsm/internal/netsim"
	"ndsm/internal/obs"
	"ndsm/internal/recovery"
	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
	"ndsm/internal/telemetry"
	"ndsm/internal/trace"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

func fixture(t *testing.T) (*discovery.Store, *core.Node, *httptest.Server) {
	t.Helper()
	fabric := transport.NewFabric()
	registry := discovery.NewStore(nil, 0)

	sup, err := core.NewNode(core.Config{Name: "sup", Transport: transport.NewMem(fabric), Registry: registry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sup.Close() })
	if err := sup.Serve(&svcdesc.Description{Name: "sensor/bp", Reliability: 0.9, PowerLevel: 1},
		func(p []byte) ([]byte, error) { return append([]byte("web:"), p...), nil }); err != nil {
		t.Fatal(err)
	}

	web, err := core.NewNode(core.Config{Name: "web", Transport: transport.NewMem(fabric), Registry: registry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = web.Close() })

	bridge := New(registry, web)
	t.Cleanup(func() { _ = bridge.Close() })
	srv := httptest.NewServer(bridge)
	t.Cleanup(srv.Close)
	return registry, web, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url) //nolint:gosec // test URL
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

func TestHealthz(t *testing.T) {
	_, _, srv := fixture(t)
	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("code=%d body=%q", code, body)
	}
}

func TestFigure1Endpoint(t *testing.T) {
	_, _, srv := fixture(t)
	code, body := get(t, srv.URL+"/figure1")
	if code != http.StatusOK || !strings.Contains(body, "1993") {
		t.Fatalf("code=%d body=%q", code, body)
	}
}

func TestServicesEndpoint(t *testing.T) {
	_, _, srv := fixture(t)
	code, body := get(t, srv.URL+"/services?name=sensor/*")
	if code != http.StatusOK {
		t.Fatalf("code=%d body=%q", code, body)
	}
	descs, err := svcdesc.UnmarshalDescriptionList([]byte(body))
	if err != nil {
		t.Fatalf("response not a service list: %v\n%s", err, body)
	}
	if len(descs) != 1 || descs[0].Provider != "sup" {
		t.Fatalf("descs = %+v", descs)
	}
}

func TestServicesFilter(t *testing.T) {
	_, _, srv := fixture(t)
	code, body := get(t, srv.URL+"/services?name=sensor/*&minReliability=0.99")
	if code != http.StatusOK {
		t.Fatalf("code=%d", code)
	}
	descs, err := svcdesc.UnmarshalDescriptionList([]byte(body))
	if err != nil || len(descs) != 0 {
		t.Fatalf("floor not applied: %v, %v", descs, err)
	}
	if code, _ := get(t, srv.URL+"/services?minReliability=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad filter accepted: %d", code)
	}
}

func TestCallEndpoint(t *testing.T) {
	_, _, srv := fixture(t)
	resp, err := http.Post(srv.URL+"/call/sensor/bp", "application/octet-stream", strings.NewReader("read"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code = %d", resp.StatusCode)
	}
	buf := make([]byte, 64)
	n, _ := resp.Body.Read(buf)
	if string(buf[:n]) != "web:read" {
		t.Fatalf("body = %q", buf[:n])
	}
	if got := resp.Header.Get("X-NDSM-Supplier"); got != "sup" {
		t.Fatalf("supplier header = %q", got)
	}
	// The binding is cached: a second call works without a new Bind.
	resp2, err := http.Post(srv.URL+"/call/sensor/bp", "application/octet-stream", strings.NewReader("again"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second call code = %d", resp2.StatusCode)
	}
}

func TestCallUnknownService(t *testing.T) {
	_, _, srv := fixture(t)
	resp, err := http.Post(srv.URL+"/call/nothing", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("code = %d", resp.StatusCode)
	}
}

func TestCallMethodAndPathValidation(t *testing.T) {
	_, _, srv := fixture(t)
	if code, _ := get(t, srv.URL+"/call/sensor/bp"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on /call = %d", code)
	}
	resp, err := http.Post(srv.URL+"/call/", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty service = %d", resp.StatusCode)
	}
}

// A body over maxCallBody is refused whole with 413 before any binding is
// made: the service never sees it, cut short or otherwise.
func TestCallRejectsOversizedBody(t *testing.T) {
	fabric := transport.NewFabric()
	registry := discovery.NewStore(nil, 0)
	sup, err := core.NewNode(core.Config{Name: "sup", Transport: transport.NewMem(fabric), Registry: registry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sup.Close() })
	var calls atomic.Int64
	if err := sup.Serve(&svcdesc.Description{Name: "sink", Reliability: 0.9, PowerLevel: 1},
		func(p []byte) ([]byte, error) { calls.Add(1); return nil, nil }); err != nil {
		t.Fatal(err)
	}
	web, err := core.NewNode(core.Config{Name: "web", Transport: transport.NewMem(fabric), Registry: registry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = web.Close() })
	bridge := New(registry, web)
	t.Cleanup(func() { _ = bridge.Close() })
	srv := httptest.NewServer(bridge)
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL+"/call/sink", "application/octet-stream", bytes.NewReader(make([]byte, maxCallBody+1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("code = %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("the service ran %d times on an oversized body", n)
	}
	bridge.mu.Lock()
	bound := len(bridge.bindings)
	bridge.mu.Unlock()
	if bound != 0 {
		t.Fatalf("%d bindings made for a refused call", bound)
	}
}

func TestCallDisabledWithoutNode(t *testing.T) {
	registry := discovery.NewStore(nil, 0)
	bridge := New(registry, nil)
	srv := httptest.NewServer(bridge)
	t.Cleanup(srv.Close)
	resp, err := http.Post(srv.URL+"/call/x", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("code = %d", resp.StatusCode)
	}
}

func TestNotFound(t *testing.T) {
	_, _, srv := fixture(t)
	if code, _ := get(t, srv.URL+"/nope"); code != http.StatusNotFound {
		t.Fatalf("code = %d", code)
	}
}

func TestServicesMethodValidation(t *testing.T) {
	_, _, srv := fixture(t)
	resp, err := http.Post(srv.URL+"/services", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("code = %d", resp.StatusCode)
	}
}

// TestMetricsEndpoint drives one workload through every instrumented layer
// of one simulated node — an instrumented transport carrying a central
// discovery lookup, a netmux overflow drop, and a WAL append, all counting
// into the node's registry — then asserts /metrics reports live counters for
// all of them.
func TestMetricsEndpoint(t *testing.T) {
	// Netmux: an unregistered protocol byte is dropped and counted in b's
	// registry, which b's other components count into as well.
	net := netsim.New(netsim.Config{Range: 100, Unlimited: true})
	t.Cleanup(net.Close)
	for _, id := range []netsim.NodeID{"a", "b"} {
		if err := net.AddNode(id, netsim.Position{}); err != nil {
			t.Fatal(err)
		}
	}
	reg := net.Metrics("b")
	mux, err := netmux.New(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mux.Close)
	muxDrops := reg.Counter("netmux.dropped.238")
	if err := net.Send("a", "b", []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for muxDrops.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("netmux never dropped the unknown-protocol packet")
		}
		time.Sleep(time.Millisecond)
	}

	// Transport + discovery: a central registry exercised over an
	// instrumented mem transport.
	fabric := transport.NewFabric()
	l, err := transport.NewMem(fabric).Listen("registry")
	if err != nil {
		t.Fatal(err)
	}
	dsrv := discovery.NewServer(discovery.NewStore(nil, 0), l)
	t.Cleanup(func() { _ = dsrv.Close() })
	dcli := discovery.NewInstrumentedClient(transport.Instrument(transport.NewMem(fabric), reg), "registry", reg, nil)
	t.Cleanup(func() { _ = dcli.Close() })
	if err := dcli.Register(&svcdesc.Description{Name: "svc", Provider: "n1", Reliability: 0.9, PowerLevel: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := dcli.Lookup(&svcdesc.Query{Name: "svc"}); err != nil {
		t.Fatal(err)
	}

	// WAL: one append.
	wal, err := recovery.OpenWAL(filepath.Join(t.TempDir(), "wal.log"), recovery.WALOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = wal.Close() })
	if _, err := wal.Append(recovery.Record{Type: recovery.RecordOp, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}

	bridge := New(discovery.NewStore(nil, 0), nil)
	bridge.SetMetricsRegistry(reg)
	srv := httptest.NewServer(bridge)
	t.Cleanup(srv.Close)
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	for _, counter := range []string{
		"netsim.delivered",
		"transport.mem.sent_msgs",
		"transport.mem.recv_msgs",
		"discovery.lookup.queries",
		"discovery.lookup.hits",
		"discovery.client.calls",
		"netmux.dropped.238",
		"wal.appends",
	} {
		if snap.Counters[counter] <= 0 {
			t.Errorf("counter %s did not move: snapshot has %d", counter, snap.Counters[counter])
		}
	}
	// a's registry is a's alone: it saw its own send and nothing of b's.
	if got := net.Metrics("a").Snapshot().Counters; got["netmux.dropped.238"] != 0 || got["wal.appends"] != 0 || got["netsim.sent"] != 1 {
		t.Errorf("a's registry = %v", got)
	}
}

// TestMetricsEndpointLaneCounters sheds one bulk call at a lane-aware
// endpoint server and asserts /metrics, pointed at the server's registry,
// exposes the per-lane admission series.
func TestMetricsEndpointLaneCounters(t *testing.T) {
	reg := obs.NewRegistry()

	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	l, err := tr.Listen("lane-srv")
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 1, all of it reserved for control: a bulk call sheds without
	// blocking, a control call admits through the reservation.
	esrv := endpoint.NewServer(l, endpoint.ServerOptions{
		Name:        "lanesrv",
		MaxInFlight: 1,
		Lanes:       &endpoint.LaneConfig{Quota: map[endpoint.Lane]int{endpoint.LaneControl: 1}},
		Metrics:     reg,
	})
	t.Cleanup(func() { _ = esrv.Close() })
	esrv.Handle("w", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	caller, err := endpoint.NewCaller(tr, "lane-srv", endpoint.CallerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = caller.Close() })
	if _, err := caller.Do(&endpoint.Call{Topic: "w", Lane: endpoint.LaneBulk, Timeout: 5 * time.Second}); !endpoint.IsShed(err) {
		t.Fatalf("bulk call: got %v, want shed", err)
	}
	if _, err := caller.Do(&endpoint.Call{Topic: "w", Lane: endpoint.LaneControl, Timeout: 5 * time.Second}); err != nil {
		t.Fatalf("control call: %v", err)
	}

	bridge := New(discovery.NewStore(nil, 0), nil)
	bridge.SetMetricsRegistry(reg)
	srv := httptest.NewServer(bridge)
	t.Cleanup(srv.Close)
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	for _, counter := range []string{
		"lanesrv.lane.bulk.shed",
		"lanesrv.lane.control.admitted",
		"lanesrv.shed",
	} {
		if snap.Counters[counter] <= 0 {
			t.Errorf("counter %s did not move", counter)
		}
	}
}

func TestNewHTTPServerHardened(t *testing.T) {
	srv := NewHTTPServer("127.0.0.1:0", http.NewServeMux())
	if srv.Addr != "127.0.0.1:0" {
		t.Fatalf("addr = %q", srv.Addr)
	}
	// Every slow-client timeout must be set: an unset one is an unbounded
	// hold on a connection from a constrained device's tiny pool.
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("unbounded timeout in %+v", srv)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown idle server: %v", err)
	}
}

// TestHealthzPeerStates drives a failure detector to a mixed verdict — one
// alive peer, one suspected with an open breaker — and asserts /healthz
// reports both per-peer records with suspicion, phi, and breaker state.
func TestHealthzPeerStates(t *testing.T) {
	vc := simtime.NewVirtual(time.Unix(5000, 0))
	mon := health.NewMonitor(health.Options{Clock: vc, Registry: obs.NewRegistry()})
	// "alive" heartbeats steadily; "dead" stops and fails calls.
	for i := 0; i < 6; i++ {
		mon.Heartbeat("alive")
		if i < 3 {
			mon.Heartbeat("dead")
		}
		vc.Advance(50 * time.Millisecond)
	}
	mon.Heartbeat("alive")
	mon.ReportFailure("dead")
	mon.ReportFailure("dead")
	vc.Advance(100 * time.Millisecond)
	mon.Heartbeat("alive")

	bridge := New(discovery.NewStore(nil, 0), nil)
	bridge.SetHealth(mon)
	srv := httptest.NewServer(bridge)
	t.Cleanup(srv.Close)

	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("code=%d body=%q", code, body)
	}
	var doc struct {
		Status string              `json:"status"`
		Peers  []health.PeerStatus `json:"peers"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, body)
	}
	if doc.Status != "ok" {
		t.Errorf("status = %q", doc.Status)
	}
	if len(doc.Peers) != 2 {
		t.Fatalf("got %d peers, want 2: %s", len(doc.Peers), body)
	}
	// Status() sorts by peer name: alive then dead.
	alive, dead := doc.Peers[0], doc.Peers[1]
	if alive.Peer != "alive" || dead.Peer != "dead" {
		t.Fatalf("peer order: %q, %q", alive.Peer, dead.Peer)
	}
	if alive.Suspected {
		t.Errorf("alive peer suspected (phi=%v)", alive.Phi)
	}
	if !dead.Suspected {
		t.Errorf("dead peer not suspected (phi=%v)", dead.Phi)
	}
	if dead.Breaker != "open" {
		t.Errorf("dead breaker = %q, want open", dead.Breaker)
	}
	if alive.Breaker != "closed" {
		t.Errorf("alive breaker = %q, want closed", alive.Breaker)
	}

	// Method validation.
	resp, err := http.Post(srv.URL+"/healthz", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", resp.StatusCode)
	}
}

// TestTraceEndpoint records spans into an attached collector and reads them
// back in both export formats.
func TestTraceEndpoint(t *testing.T) {
	col := trace.NewCollector(64)
	tr := trace.New(trace.Options{Name: "bridge", Collector: col})
	sp := tr.StartSpan("client.call", trace.Context{})
	child := tr.StartSpan("server.handle", sp.Context())
	child.Finish()
	sp.Finish()

	bridge := New(discovery.NewStore(nil, 0), nil)
	bridge.SetTraceCollector(col)
	srv := httptest.NewServer(bridge)
	t.Cleanup(srv.Close)

	// Default: Chrome trace-event JSON.
	code, body := get(t, srv.URL+"/trace")
	if code != http.StatusOK {
		t.Fatalf("code=%d body=%q", code, body)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace not Chrome JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	if !names["client.call"] || !names["server.handle"] {
		t.Errorf("missing spans in %v", names)
	}

	// JSONL format: one object per line.
	code, body = get(t, srv.URL+"/trace?format=jsonl")
	if code != http.StatusOK {
		t.Fatalf("jsonl code=%d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2:\n%s", len(lines), body)
	}
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if obj["trace"] == "" || obj["span"] == "" {
			t.Errorf("JSONL line missing IDs: %v", obj)
		}
	}
}

// TestTraceEndpointDisabled: with no attached collector, /trace answers 404.
func TestTraceEndpointDisabled(t *testing.T) {
	bridge := New(discovery.NewStore(nil, 0), nil)
	srv := httptest.NewServer(bridge)
	t.Cleanup(srv.Close)
	code, _ := get(t, srv.URL+"/trace")
	if code != http.StatusNotFound {
		t.Fatalf("code=%d, want 404", code)
	}
}

// TestMetricsQuantileKeys asserts /metrics histograms serve the p50/p95/p99
// summary keys.
func TestMetricsQuantileKeys(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("rt")
	for i := 1; i <= 50; i++ {
		h.Observe(float64(i))
	}
	bridge := New(discovery.NewStore(nil, 0), nil)
	bridge.SetMetricsRegistry(reg)
	srv := httptest.NewServer(bridge)
	t.Cleanup(srv.Close)
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("code=%d", code)
	}
	for _, key := range []string{`"p50"`, `"p95"`, `"p99"`} {
		if !strings.Contains(body, key) {
			t.Errorf("/metrics missing %s:\n%s", key, body)
		}
	}
}

func TestClusterAndDashEndpoints(t *testing.T) {
	_, _, srv := fixture(t)
	// Without an aggregator attached, the telemetry endpoints 404.
	if code, _ := get(t, srv.URL+"/cluster"); code != http.StatusNotFound {
		t.Fatalf("/cluster without aggregator = %d, want 404", code)
	}
	if code, _ := get(t, srv.URL+"/dash"); code != http.StatusNotFound {
		t.Fatalf("/dash without aggregator = %d, want 404", code)
	}
}

func TestClusterEndpointServesView(t *testing.T) {
	fabric := transport.NewFabric()
	registry := discovery.NewStore(nil, 0)
	web, err := core.NewNode(core.Config{Name: "web", Transport: transport.NewMem(fabric), Registry: registry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = web.Close() })
	bridge := New(registry, web)
	t.Cleanup(func() { _ = bridge.Close() })

	clock := simtime.NewVirtual(time.Unix(0, 0))
	agg := telemetry.NewAggregator(telemetry.AggregatorOptions{Clock: clock, Registry: obs.NewRegistry()})
	if err := agg.Ingest(&telemetry.Report{
		Node: "n1", Seq: 1, Time: time.Unix(1, 0),
		Counters: map[string]int64{"reqs": 12},
	}); err != nil {
		t.Fatal(err)
	}
	bridge.SetAggregator(agg)

	srv := httptest.NewServer(bridge)
	t.Cleanup(srv.Close)

	code, body := get(t, srv.URL+"/cluster")
	if code != http.StatusOK {
		t.Fatalf("/cluster = %d body=%q", code, body)
	}
	var view telemetry.ClusterView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("/cluster not JSON: %v\n%s", err, body)
	}
	if len(view.Nodes) != 1 || view.Nodes[0].Node != "n1" || !view.Nodes[0].Fresh {
		t.Fatalf("cluster view = %+v", view)
	}
	if len(view.Nodes[0].Series["reqs"]) != 1 {
		t.Fatalf("reqs series missing: %+v", view.Nodes[0].Series)
	}

	code, page := get(t, srv.URL+"/dash")
	if code != http.StatusOK || !strings.Contains(page, "<svg") || !strings.Contains(page, "n1") {
		t.Fatalf("/dash = %d page=%.120q", code, page)
	}

	// POST is rejected on both read-only endpoints.
	resp, err := http.Post(srv.URL+"/cluster", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /cluster = %d, want 405", resp.StatusCode)
	}
}

func TestPprofGated(t *testing.T) {
	registry := discovery.NewStore(nil, 0)
	bridge := New(registry, nil)
	t.Cleanup(func() { _ = bridge.Close() })
	srv := httptest.NewServer(bridge)
	t.Cleanup(srv.Close)

	// Profiling endpoints stay dark until explicitly enabled.
	if code, _ := get(t, srv.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof index before opt-in = %d, want 404", code)
	}
	bridge.EnablePprof()
	code, body := get(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index after opt-in = %d body=%.120q", code, body)
	}
	if code, _ := get(t, srv.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline = %d, want 200", code)
	}
}

func TestRuntimeMetricsOptIn(t *testing.T) {
	registry := discovery.NewStore(nil, 0)
	bridge := New(registry, nil)
	t.Cleanup(func() { _ = bridge.Close() })
	reg := obs.NewRegistry()
	bridge.SetMetricsRegistry(reg)
	srv := httptest.NewServer(bridge)
	t.Cleanup(srv.Close)

	_, before := get(t, srv.URL+"/metrics")
	if strings.Contains(before, obs.GaugeGoroutines) {
		t.Fatalf("runtime gauges present before opt-in:\n%s", before)
	}
	bridge.EnableRuntimeMetrics()
	code, after := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, name := range []string{obs.GaugeGoroutines, obs.GaugeHeapBytes, obs.GaugeGCPauseMS} {
		if !strings.Contains(after, name) {
			t.Errorf("runtime gauge %s missing from /metrics:\n%s", name, after)
		}
	}
}
