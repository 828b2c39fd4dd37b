package main

import (
	"flag"
	"fmt"
	"io"
	"testing"
	"time"

	"ndsm/internal/core"
	"ndsm/internal/discovery"
	"ndsm/internal/endpoint"
	"ndsm/internal/interact/pubsub"
	"ndsm/internal/obs"
	"ndsm/internal/qos"
	"ndsm/internal/reqlog"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// The isolated drives time each layer's public functions alone, on the
// message shapes the workloads send, where the seams of the traced run cannot
// split two modules from outside. They say what a layer costs when nothing
// else runs; the traced segments say what it costs in place. The difference
// is goroutine hand-offs and cache misses, and is itself a finding.

// isolatedDrive is one number read off one drive.
type isolatedDrive struct {
	name  string
	unit  string
	moves string
	bench string // the drive that produces it
	pick  func(testing.BenchmarkResult) float64
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func usPerOp(r testing.BenchmarkResult) float64 { return nsPerOp(r) / 1e3 }

// hopNs halves a ping-pong: one message one way.
func hopNs(r testing.BenchmarkResult) float64 { return nsPerOp(r) / 2 }

func allocsPerOp(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.MemAllocs) / float64(r.N)
}

var isolatedDrives = []isolatedDrive{
	{"wire.encode_ns.small", "ns", "transport.send_us", "encode.small", nsPerOp},
	{"wire.encode_ns.large", "ns", "transport.send_us on rpc_large_tcp", "encode.large", nsPerOp},
	{"wire.decode_ns.small", "ns", "transport.hop_*_us; x2 bounds what a decode rewrite can claim on rtt_p50_us", "decode.small", nsPerOp},
	{"wire.decode_ns.large", "ns", "transport.hop_*_us on rpc_large_tcp", "decode.large", nsPerOp},
	{"wire.decode_allocs.small", "count", "allocs_per_req", "decode.small", allocsPerOp},
	{"wire.batch_send_ns.small", "ns", "transport.send_us", "batch_send.small", nsPerOp},
	{"wire.batch_send_ns.large", "ns", "transport.send_us on rpc_large_tcp", "batch_send.large", nsPerOp},
	{"wire.frame_read_ns.small", "ns", "transport.hop_*_us", "frame_read.small", nsPerOp},
	{"wire.frame_read_ns.large", "ns", "transport.hop_*_us on rpc_large_tcp", "frame_read.large", nsPerOp},
	{"transport.mem_hop_ns", "ns", "transport.* on overload_lanes_mem", "mem_hop", hopNs},
	{"transport.tcp_hop_ns.small", "ns", "rtt_p50_us: x2 is the floor under the middleware", "tcp_hop.small", hopNs},
	{"transport.tcp_hop_ns.large", "ns", "rtt_p50_us on rpc_large_tcp", "tcp_hop.large", hopNs},
	{"endpoint.do_mem_ns", "ns", "endpoint.* segments", "do_mem", nsPerOp},
	{"endpoint.do_mem_allocs", "count", "allocs_per_req", "do_mem", allocsPerOp},
	{"endpoint.do_lanes_mem_ns", "ns", "endpoint.server_up_us: minus endpoint.do_mem_ns is the admit cost", "do_lanes_mem", nsPerOp},
	{"endpoint.oneway_mem_ns", "ns", "endpoint.client_down_us", "oneway_mem", nsPerOp},
	{"core.request_mem_ns", "ns", "endpoint.client_*: minus endpoint.do_mem_ns is core's share", "request_mem", nsPerOp},
	{"core.request_mem_allocs", "count", "allocs_per_req", "request_mem", allocsPerOp},
	{"core.bind_us", "us", "setup_s", "bind", usPerOp},
	{"discovery.lookup_ns", "ns", "setup_s", "lookup", nsPerOp},
	{"obs.histogram_observe_ns", "ns", "endpoint.server_down_us, cpu_us_per_req", "histogram_observe", nsPerOp},
	{"obs.counter_inc_ns", "ns", "cpu_us_per_req", "counter_inc", nsPerOp},
	{"reqlog.record_ns", "ns", "endpoint.server_down_us, cpu_us_per_req", "reqlog_record", nsPerOp},
	{"pubsub.match_ns", "ns", "endpoint.server_down_us on pubsub_fanout_tcp", "pubsub_match", nsPerOp},
	{"pubsub.publish_mem_ns", "ns", "pubsub.publish_ack_us", "pubsub_publish_mem", nsPerOp},
}

// isolatedBenchTime is how long each drive runs: the traced run spends about
// a fifth of its time here.
const isolatedBenchTime = "100ms"

// runIsolated runs every drive once and reads the declared numbers off them.
func runIsolated() (metricSet, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", isolatedBenchTime); err != nil {
		return nil, err
	}
	results := make(map[string]testing.BenchmarkResult)
	out := metricSet{}
	for _, d := range isolatedDrives {
		r, done := results[d.bench]
		if !done {
			fn := isolatedBenches[d.bench]
			if fn == nil {
				return nil, fmt.Errorf("isolated drive %s: no benchmark %q", d.name, d.bench)
			}
			r = testing.Benchmark(fn)
			if r.N == 0 {
				return nil, fmt.Errorf("isolated drive %q failed", d.bench)
			}
			results[d.bench] = r
		}
		out.set(d.name, d.pick(r))
	}
	return out, nil
}

// shapeMessage is a request as core.Binding builds it for the workloads:
// addresses, topic and deadline set, default lane, no headers.
func shapeMessage(payload int) *wire.Message {
	return &wire.Message{
		ID:       42,
		Kind:     wire.KindRequest,
		Src:      "127.0.0.1:40001",
		Dst:      "127.0.0.1:40002",
		Topic:    echoService,
		Deadline: time.Unix(1_700_000_000, 0),
		Payload:  make([]byte, payload),
	}
}

const (
	smallPayload = 64
	largePayload = 16 << 10
)

var isolatedBenches = map[string]func(b *testing.B){
	"encode.small":       func(b *testing.B) { driveEncode(b, smallPayload) },
	"encode.large":       func(b *testing.B) { driveEncode(b, largePayload) },
	"decode.small":       func(b *testing.B) { driveDecode(b, smallPayload) },
	"decode.large":       func(b *testing.B) { driveDecode(b, largePayload) },
	"batch_send.small":   func(b *testing.B) { driveBatchSend(b, smallPayload) },
	"batch_send.large":   func(b *testing.B) { driveBatchSend(b, largePayload) },
	"frame_read.small":   func(b *testing.B) { driveFrameRead(b, smallPayload) },
	"frame_read.large":   func(b *testing.B) { driveFrameRead(b, largePayload) },
	"mem_hop":            func(b *testing.B) { driveHop(b, transport.NewMem(transport.NewFabric()), "peer", smallPayload) },
	"tcp_hop.small":      func(b *testing.B) { driveHop(b, transport.NewTCP(nil), "127.0.0.1:0", smallPayload) },
	"tcp_hop.large":      func(b *testing.B) { driveHop(b, transport.NewTCP(nil), "127.0.0.1:0", largePayload) },
	"do_mem":             func(b *testing.B) { driveDo(b, endpoint.ServerOptions{}, false) },
	"do_lanes_mem":       driveDoLanes,
	"oneway_mem":         func(b *testing.B) { driveDo(b, endpoint.ServerOptions{OneWayKinds: []wire.Kind{wire.KindData}}, true) },
	"request_mem":        driveRequest,
	"bind":               driveBind,
	"lookup":             driveLookup,
	"histogram_observe":  driveHistogram,
	"counter_inc":        driveCounter,
	"reqlog_record":      driveReqlog,
	"pubsub_match":       driveMatch,
	"pubsub_publish_mem": drivePublish,
}

func driveEncode(b *testing.B, payload int) {
	m := shapeMessage(payload)
	buf := make([]byte, 0, payload+256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := (wire.Binary{}).AppendEncode(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}

func driveDecode(b *testing.B, payload int) {
	data, err := (wire.Binary{}).Encode(shapeMessage(payload))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (wire.Binary{}).Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func driveBatchSend(b *testing.B, payload int) {
	bw := wire.NewBatchWriter(io.Discard, wire.Binary{})
	m := shapeMessage(payload)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := bw.Send(m); err != nil {
			b.Fatal(err)
		}
	}
}

// frameLoop is a stream that never ends: the same frames, over and over.
type frameLoop struct {
	frames []byte
	at     int
}

func (f *frameLoop) Read(p []byte) (int, error) {
	n := copy(p, f.frames[f.at:])
	f.at = (f.at + n) % len(f.frames)
	return n, nil
}

func driveFrameRead(b *testing.B, payload int) {
	var frames []byte
	for i := 0; i < 16; i++ {
		var err error
		if frames, err = wire.AppendMessageFrame(frames, wire.Binary{}, shapeMessage(payload)); err != nil {
			b.Fatal(err)
		}
	}
	fr := wire.NewFrameReader(&frameLoop{frames: frames})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fr.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// driveHop ping-pongs one message over a bare connection: no endpoint, no
// middleware, only the transport and what it drives (wire, the kernel).
func driveHop(b *testing.B, tr transport.Transport, addr string, payload int) {
	defer tr.Close() //nolint:errcheck // benchmark teardown
	l, err := tr.Listen(addr)
	if err != nil {
		b.Fatal(err)
	}
	echoed := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			echoed <- err
			return
		}
		for {
			m, err := c.Recv()
			if err != nil {
				echoed <- nil // the dialer closed: the drive is over
				return
			}
			if err := c.Send(m); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	m := shapeMessage(payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(m); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = c.Close()
	if err := <-echoed; err != nil {
		b.Fatal(err)
	}
}

// memEndpoint is an echo server and a caller to it over the mem transport.
func memEndpoint(b *testing.B, opts endpoint.ServerOptions, copts endpoint.CallerOptions) (*endpoint.Caller, func()) {
	fabric := transport.NewFabric()
	l, err := transport.NewMem(fabric).Listen("srv")
	if err != nil {
		b.Fatal(err)
	}
	srv := endpoint.NewServer(l, opts)
	srv.Handle(echoService, func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply, Payload: req.Payload}, nil
	})
	copts.Eager = true
	caller, err := endpoint.NewCaller(transport.NewMem(fabric), "srv", copts)
	if err != nil {
		b.Fatal(err)
	}
	return caller, func() {
		_ = caller.Close()
		_ = srv.Close()
	}
}

func driveDo(b *testing.B, opts endpoint.ServerOptions, oneWay bool) {
	caller, done := memEndpoint(b, opts, endpoint.CallerOptions{})
	defer done()
	payload := make([]byte, smallPayload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call := &endpoint.Call{Topic: echoService, Payload: payload, Timeout: endpoint.NoTimeout, OneWay: oneWay}
		var err error
		if oneWay {
			_, err = caller.Go(call).Wait()
		} else {
			_, err = caller.Do(call)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// driveDoLanes is driveDo through the lane-aware admitter with nothing to
// shed: the header stamp, the lane parse and the quota accounting.
func driveDoLanes(b *testing.B) {
	caller, done := memEndpoint(b, endpoint.ServerOptions{
		Name:        "bench.lanes",
		MaxInFlight: maxInFlight,
		Metrics:     obs.NewRegistry(),
		Lanes:       &endpoint.LaneConfig{Quota: map[endpoint.Lane]int{endpoint.LaneControl: controlQuota}, QueueDepth: laneQueueDepth},
	}, endpoint.CallerOptions{Lane: endpoint.LaneControl})
	defer done()
	payload := make([]byte, smallPayload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := caller.Do(&endpoint.Call{Topic: echoService, Payload: payload, Timeout: endpoint.NoTimeout}); err != nil {
			b.Fatal(err)
		}
	}
}

// filledStore is a registry holding the decoys and the echo service.
func filledStore(b *testing.B) *discovery.Store {
	store := discovery.NewStore(nil, 0)
	for i := 0; i < decoys; i++ {
		d := &svcdesc.Description{Name: fmt.Sprintf("decoy/%04d", i), Provider: fmt.Sprintf("10.0.0.%d:7000", i%250), Reliability: 0.9, PowerLevel: 1}
		if err := store.Register(d); err != nil {
			b.Fatal(err)
		}
	}
	return store
}

// memNodes is a supplier and a consumer node over mem sharing one store.
func memNodes(b *testing.B) (consumer *core.Node, done func()) {
	fabric, store := transport.NewFabric(), filledStore(b)
	sup, err := core.NewNode(core.Config{Name: "sup", Transport: transport.NewMem(fabric), Registry: store, Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	if err := sup.Serve(&svcdesc.Description{Name: echoService, Reliability: 0.99, PowerLevel: 1},
		func(p []byte) ([]byte, error) { return p, nil }); err != nil {
		b.Fatal(err)
	}
	con, err := core.NewNode(core.Config{Name: "con", Transport: transport.NewMem(fabric), Registry: store, Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	return con, func() {
		_ = con.Close()
		_ = sup.Close()
	}
}

// echoSpec binds to the echo service with no deadline. A binding with one
// arms a timer per request that lives until the deadline whether or not the
// reply came (5 s at 100k requests a second held some 100 MB on the seed);
// the overload workload is where deadlines are exercised.
var echoSpec = &qos.Spec{Query: svcdesc.Query{Name: echoService}}

func driveRequest(b *testing.B) {
	con, done := memNodes(b)
	defer done()
	binding, err := con.Bind(echoSpec, core.BindOptions{})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, smallPayload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binding.Request(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// driveBind is lookup, selection and dial, then one request: the mem listener
// refuses a seventeenth connection nobody has accepted yet, and the request's
// reply is the proof that this one was.
func driveBind(b *testing.B) {
	con, done := memNodes(b)
	defer done()
	payload := make([]byte, smallPayload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binding, err := con.Bind(echoSpec, core.BindOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := binding.Request(payload); err != nil {
			b.Fatal(err)
		}
		_ = binding.Close()
	}
}

func driveLookup(b *testing.B) {
	store := filledStore(b)
	if err := store.Register(&svcdesc.Description{Name: echoService, Provider: "sup", Reliability: 0.99, PowerLevel: 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if found, err := store.Lookup(&echoSpec.Query); err != nil || len(found) != 1 {
			b.Fatalf("lookup: %d found, %v", len(found), err)
		}
	}
}

func driveHistogram(b *testing.B) {
	h := obs.NewRegistry().Histogram("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) / 100)
	}
}

func driveCounter(b *testing.B) {
	c := obs.NewRegistry().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc(1)
	}
}

// driveReqlog is the recorder's steady state at the workloads' sampling rate.
func driveReqlog(b *testing.B) {
	rec := reqlog.New(reqlog.Options{SampleEvery: 64, Registry: obs.NewRegistry()})
	r := reqlog.Record{Time: time.Unix(0, 0), Kind: reqlog.KindServer, Topic: echoService, Outcome: reqlog.OutcomeOK, Latency: 20 * time.Microsecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Record(r)
	}
}

func driveMatch(b *testing.B) {
	matched := 0
	for i := 0; i < b.N; i++ {
		if pubsub.MatchTopic("bench/*", "bench/00ff") {
			matched++
		}
	}
	if matched != b.N {
		b.Fatal("pattern did not match")
	}
}

// drivePublish is one publish through a mem broker to the workload's four
// subscribers, each drained.
func drivePublish(b *testing.B) {
	fabric := transport.NewFabric()
	l, err := transport.NewMem(fabric).Listen("broker")
	if err != nil {
		b.Fatal(err)
	}
	broker := pubsub.NewBroker(l)
	defer broker.Close() //nolint:errcheck // benchmark teardown
	for i := 0; i < subscribers; i++ {
		c, err := pubsub.Dial(transport.NewMem(fabric), "broker")
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close() //nolint:errcheck // benchmark teardown
		ch, err := c.Subscribe("bench/*")
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			for range ch {
			}
		}()
	}
	pub, err := pubsub.Dial(transport.NewMem(fabric), "broker")
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close() //nolint:errcheck // benchmark teardown
	payload := make([]byte, smallPayload+8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Publish("bench/00ff", payload); err != nil {
			b.Fatal(err)
		}
	}
}
