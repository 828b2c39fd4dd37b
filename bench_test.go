// Root benchmark harness: one benchmark per reproduced table/figure (F1,
// E1–E11) plus the ablations DESIGN.md calls out. cmd/ndsm-bench prints the
// full tables; these benchmarks time the hot cores of each experiment so
// `go test -bench=. -benchmem` regenerates the performance side.
package ndsm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ndsm/internal/bibliometrics"
	"ndsm/internal/core"
	"ndsm/internal/discovery"
	"ndsm/internal/interact/mq"
	"ndsm/internal/interact/pubsub"
	"ndsm/internal/interact/rpc"
	"ndsm/internal/interact/tuplespace"
	"ndsm/internal/interop"
	"ndsm/internal/milan"
	"ndsm/internal/netmux"
	"ndsm/internal/netsim"
	"ndsm/internal/qos"
	"ndsm/internal/recovery"
	"ndsm/internal/routing"
	"ndsm/internal/scheduler"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transaction"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// --- F1 ---

func BenchmarkFig1Render(b *testing.B) {
	series := bibliometrics.Figure1()
	for i := 0; i < b.N; i++ {
		_ = bibliometrics.Chart(series, 50)
	}
}

// --- E1/E2: discovery ---

func BenchmarkDiscoveryStoreLookup(b *testing.B) {
	store := discovery.NewStore(nil, 0)
	for i := 0; i < 200; i++ {
		d := &svcdesc.Description{
			Name:        fmt.Sprintf("svc-%d", i%20),
			Provider:    fmt.Sprintf("node-%d", i),
			Reliability: 0.9,
			PowerLevel:  1,
		}
		if err := store.Register(d); err != nil {
			b.Fatal(err)
		}
	}
	q := &svcdesc.Query{Name: "svc-7"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Lookup(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscoveryCentralLookup(b *testing.B) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	defer tr.Close() //nolint:errcheck
	l, err := tr.Listen("registry")
	if err != nil {
		b.Fatal(err)
	}
	srv := discovery.NewServer(discovery.NewStore(nil, 0), l)
	defer srv.Close() //nolint:errcheck
	cli := discovery.NewClient(transport.NewMem(fabric), "registry")
	defer cli.Close() //nolint:errcheck
	if err := cli.Register(&svcdesc.Description{Name: "svc", Provider: "p", Reliability: 0.9, PowerLevel: 1}); err != nil {
		b.Fatal(err)
	}
	q := &svcdesc.Query{Name: "svc"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Lookup(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscoveryFloodLookup(b *testing.B) {
	net := netsim.New(netsim.Config{Range: 12, Unlimited: true})
	defer net.Close()
	ids, err := netsim.GridField(net, "n", 9, 10)
	if err != nil {
		b.Fatal(err)
	}
	var agents []*discovery.Agent
	for _, id := range ids {
		mux, err := netmux.New(net, id)
		if err != nil {
			b.Fatal(err)
		}
		defer mux.Close()
		a := discovery.NewAgent(mux, discovery.AgentConfig{
			QueryTTL: 8, CollectWindow: 30 * time.Millisecond, MaxResults: 1,
		})
		defer a.Close() //nolint:errcheck
		agents = append(agents, a)
	}
	if err := agents[len(agents)-1].Register(&svcdesc.Description{
		Name: "svc", Provider: string(ids[len(ids)-1]), Reliability: 0.9, PowerLevel: 1,
	}); err != nil {
		b.Fatal(err)
	}
	q := &svcdesc.Query{Name: "svc"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agents[0].Lookup(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Set-up path: what a node joining pays per advertisement ---

// joinDesc is the i-th of the descriptions a node registers as it joins: the
// shape the load benchmark's set-up phase uses.
func joinDesc(i int) *svcdesc.Description {
	return &svcdesc.Description{
		Name:        fmt.Sprintf("decoy/%08x", i*2654435761),
		Provider:    fmt.Sprintf("10.%d.%d.%d:%d", i%256, i/7%256, i/3%256, 1024+i),
		InstanceID:  fmt.Sprint(i),
		Version:     fmt.Sprintf("%d.%d", 1+i%3, i%10),
		Attributes:  map[string]string{"zone": fmt.Sprint(i % 8), "rate": fmt.Sprint(i % 1000)},
		Reliability: 0.5 + float64(i%97)/194,
		PowerLevel:  float64(i%89) / 89,
	}
}

func BenchmarkDescriptionMarshal(b *testing.B) {
	d := joinDesc(137)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := svcdesc.MarshalDescription(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDescriptionUnmarshal(b *testing.B) {
	data, err := svcdesc.MarshalDescription(joinDesc(137))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svcdesc.UnmarshalDescription(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreSweep is the sweep a registry server runs before every
// request, on a table where no lease has run out: it should not depend on
// the table's size.
func BenchmarkStoreSweep(b *testing.B) {
	for _, n := range []int{256, 16384} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			store := discovery.NewStore(nil, time.Hour)
			for i := 0; i < n; i++ {
				if err := store.Register(joinDesc(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store.Sweep()
			}
		})
	}
}

// BenchmarkCentralRegister is one node's join: 256 descriptions registered
// with a fresh registry, one round trip each.
func BenchmarkCentralRegister(b *testing.B) {
	descs := make([]*svcdesc.Description, 256)
	for i := range descs {
		descs[i] = joinDesc(i)
	}
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	defer tr.Close() //nolint:errcheck
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := tr.Listen(fmt.Sprintf("registry-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		srv := discovery.NewServer(discovery.NewStore(nil, 0), l)
		cli := discovery.NewClient(tr, l.Addr())
		for _, d := range descs {
			if err := cli.Register(d); err != nil {
				b.Fatal(err)
			}
		}
		_ = cli.Close()
		_ = srv.Close()
	}
}

// --- E3: QoS matching ---

func BenchmarkQoSMatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var cands []*svcdesc.Description
	for i := 0; i < 100; i++ {
		cands = append(cands, &svcdesc.Description{
			Name:        "printer",
			Provider:    fmt.Sprintf("p-%d", i),
			Reliability: rng.Float64(),
			PowerLevel:  1,
			Location:    &svcdesc.Location{X: rng.Float64() * 200, Y: rng.Float64() * 200},
		})
	}
	spec := &qos.Spec{
		Query:          svcdesc.Query{Name: "printer"},
		Weights:        qos.Weights{Reliability: 0.4, Proximity: 0.6},
		Near:           &svcdesc.Location{X: 50, Y: 50},
		ProximityScale: 200,
	}
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if qos.Select(spec, cands, now) == nil {
			b.Fatal("no selection")
		}
	}
}

// --- E4: kernel request path ---

func BenchmarkKernelRequest(b *testing.B) {
	fabric := transport.NewFabric()
	registry := discovery.NewStore(nil, 0)
	sup, err := core.NewNode(core.Config{Name: "sup", Transport: transport.NewMem(fabric), Registry: registry})
	if err != nil {
		b.Fatal(err)
	}
	defer sup.Close() //nolint:errcheck
	if err := sup.Serve(&svcdesc.Description{Name: "svc", Reliability: 0.9, PowerLevel: 1},
		func(p []byte) ([]byte, error) { return p, nil }); err != nil {
		b.Fatal(err)
	}
	con, err := core.NewNode(core.Config{Name: "con", Transport: transport.NewMem(fabric), Registry: registry})
	if err != nil {
		b.Fatal(err)
	}
	defer con.Close() //nolint:errcheck
	binding, err := con.Bind(&qos.Spec{Query: svcdesc.Query{Name: "svc"}}, core.BindOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer binding.Close() //nolint:errcheck
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binding.Request(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: routing ---

func benchRouting(b *testing.B, factory func() routing.Strategy, converge int) {
	net := netsim.New(netsim.Config{Range: 12, Unlimited: true})
	defer net.Close()
	ids, err := netsim.GridField(net, "n", 16, 10)
	if err != nil {
		b.Fatal(err)
	}
	mesh, err := routing.NewMesh(net, factory)
	if err != nil {
		b.Fatal(err)
	}
	defer mesh.Close()
	if converge > 0 {
		mesh.Converge(converge)
	}
	src, dst := ids[0], ids[len(ids)-1]
	rx, err := mesh.Router(dst).Recv(dst)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mesh.Router(src).Send(src, dst, payload); err != nil {
			b.Fatal(err)
		}
		select {
		case <-rx:
		case <-time.After(10 * time.Second):
			b.Fatal("delivery timed out")
		}
	}
}

func BenchmarkRoutingFlooding(b *testing.B) {
	benchRouting(b, func() routing.Strategy { return routing.Flooding{} }, 0)
}

func BenchmarkRoutingDVHop(b *testing.B) {
	benchRouting(b, func() routing.Strategy { return routing.NewDistanceVector(routing.HopCost) }, 8)
}

func BenchmarkRoutingDVEnergy(b *testing.B) {
	benchRouting(b, func() routing.Strategy {
		return routing.NewDistanceVector(routing.EnergyCost(128, 0.05))
	}, 8)
}

func BenchmarkRoutingGeographic(b *testing.B) {
	benchRouting(b, func() routing.Strategy { return routing.Geographic{} }, 0)
}

// --- E6: MiLAN selection (ablation: exhaustive vs greedy) ---

func milanBenchSystem(nPerVar int) (*milan.System, milan.Energies, map[netsim.NodeID]netsim.Position) {
	rng := rand.New(rand.NewSource(3))
	sys := &milan.System{
		App: milan.AppSpec{
			Variables: []milan.Variable{"bp", "hr"},
			Required: map[milan.State]map[milan.Variable]float64{
				"normal": {"bp": 0.8, "hr": 0.8},
			},
		},
		Sink:  "sink",
		Range: 30,
	}
	energies := make(milan.Energies)
	positions := map[netsim.NodeID]netsim.Position{sys.Sink: {}}
	for v, variable := range []milan.Variable{"bp", "hr"} {
		for i := 0; i < nPerVar; i++ {
			id := netsim.NodeID(fmt.Sprintf("s%d-%d", v, i))
			sys.Sensors = append(sys.Sensors, milan.Sensor{
				Node:        id,
				QoS:         map[milan.Variable]float64{variable: 0.6 + rng.Float64()*0.35},
				SampleBytes: 100,
			})
			energies[id] = 1
			positions[id] = netsim.Position{X: rng.Float64() * 25, Y: rng.Float64() * 25}
		}
	}
	return sys, energies, positions
}

func BenchmarkMilanSelectExhaustive(b *testing.B) {
	sys, energies, positions := milanBenchSystem(7) // 14 sensors: 16k subsets
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (milan.Exhaustive{}).Select(sys, "normal", energies, positions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMilanSelectGreedy(b *testing.B) {
	sys, energies, positions := milanBenchSystem(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (milan.Greedy{}).Select(sys, "normal", energies, positions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMilanRound(b *testing.B) {
	sys, _, _ := milanBenchSystem(4)
	net := netsim.New(netsim.Config{Range: sys.Range, Unlimited: true})
	defer net.Close()
	if err := net.AddNodeEnergy(sys.Sink, netsim.Position{}, 1e6); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, sn := range sys.Sensors {
		if err := net.AddNodeEnergy(sn.Node, netsim.Position{X: 5 + rng.Float64()*20, Y: rng.Float64() * 20}, 10); err != nil {
			b.Fatal(err)
		}
	}
	mgr, err := milan.NewManager(sys, net, milan.Greedy{}, "normal")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mgr.Round(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: interaction styles ---

func BenchmarkInteractRPC(b *testing.B) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	defer tr.Close() //nolint:errcheck
	l, err := tr.Listen("svc")
	if err != nil {
		b.Fatal(err)
	}
	srv := rpc.NewServer(l, nil)
	defer srv.Close() //nolint:errcheck
	srv.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	cli, err := rpc.Dial(transport.NewMem(fabric), "svc", nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Call("echo", payload, 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInteractMQ(b *testing.B) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	defer tr.Close() //nolint:errcheck
	l, err := tr.Listen("broker")
	if err != nil {
		b.Fatal(err)
	}
	br := mq.NewBroker(l, 0, nil)
	defer br.Close() //nolint:errcheck
	cli, err := mq.Dial(transport.NewMem(fabric), "broker", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Push("q", payload); err != nil {
			b.Fatal(err)
		}
		if _, err := cli.Pop("q", time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInteractPubSub(b *testing.B) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	defer tr.Close() //nolint:errcheck
	l, err := tr.Listen("bus")
	if err != nil {
		b.Fatal(err)
	}
	br := pubsub.NewBroker(l)
	defer br.Close() //nolint:errcheck
	cli, err := pubsub.Dial(transport.NewMem(fabric), "bus")
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	events, err := cli.Subscribe("t")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Publish("t", payload); err != nil {
			b.Fatal(err)
		}
		<-events
	}
}

// BenchmarkInteractPubSubFanoutTCP is the load benchmark's pubsub_fanout_tcp
// in ten seconds: a broker on TCP loopback, four subscribers on "bench/*", one
// synchronous publisher rotating through 16 topics. Read its -benchmem columns
// (12 allocs/op is what the messages own: see DESIGN S11); its ns/op is for
// profiles, and claims are measured with benchmark/run.sh.
func BenchmarkInteractPubSubFanoutTCP(b *testing.B) {
	tr := transport.NewTCP(nil)
	defer tr.Close() //nolint:errcheck
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	br := pubsub.NewBroker(l)
	defer br.Close() //nolint:errcheck
	dial := func() *pubsub.Client {
		cli, err := pubsub.Dial(transport.NewTCP(nil), l.Addr())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { cli.Close() }) //nolint:errcheck
		return cli
	}
	pub := dial()
	var subs [4]<-chan pubsub.Event
	for i := range subs {
		if subs[i], err = dial().Subscribe("bench/*"); err != nil {
			b.Fatal(err)
		}
	}
	var topics [16]string
	for i := range topics {
		topics[i] = fmt.Sprintf("bench/%04x", i)
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Publish(topics[i%len(topics)], payload); err != nil {
			b.Fatal(err)
		}
		for _, events := range subs {
			<-events
		}
	}
}

func BenchmarkInteractTupleSpace(b *testing.B) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	defer tr.Close() //nolint:errcheck
	l, err := tr.Listen("space")
	if err != nil {
		b.Fatal(err)
	}
	srv := tuplespace.NewServer(tuplespace.NewSpace(nil), l, nil)
	defer srv.Close() //nolint:errcheck
	cli, err := tuplespace.Dial(transport.NewMem(fabric), "space", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Out(tuplespace.Tuple{"k", "v"}); err != nil {
			b.Fatal(err)
		}
		if _, err := cli.In(tuplespace.Tuple{"k", "*"}, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTupleSpaceLocal(b *testing.B) {
	s := tuplespace.NewSpace(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Out(tuplespace.Tuple{"k", "v"})
		if _, ok := s.InP(tuplespace.Tuple{"k", "*"}); !ok {
			b.Fatal("lost tuple")
		}
	}
}

// --- E8: scheduling ---

func BenchmarkSchedulerQueueEDF(b *testing.B) {
	q := scheduler.NewQueue(scheduler.EDF)
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(scheduler.Item{Deadline: now.Add(time.Duration(i%100) * time.Millisecond)})
		if i%2 == 1 {
			if _, err := q.Pop(); err != nil {
				b.Fatal(err)
			}
			if _, err := q.Pop(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E9: recovery (ablation: sync policy) ---

func BenchmarkRecoveryWALAppend(b *testing.B) {
	w, err := recovery.OpenWAL(b.TempDir()+"/wal.log", recovery.WALOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close() //nolint:errcheck
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(recovery.Record{Type: recovery.RecordOp, Data: payload}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoveryWALAppendSync(b *testing.B) {
	w, err := recovery.OpenWAL(b.TempDir()+"/wal.log", recovery.WALOptions{SyncEveryAppend: true})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close() //nolint:errcheck
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(recovery.Record{Type: recovery.RecordOp, Data: payload}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoveryReplay(b *testing.B) {
	w, err := recovery.OpenWAL(b.TempDir()+"/wal.log", recovery.WALOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close() //nolint:errcheck
	payload := make([]byte, 64)
	for i := 0; i < 1000; i++ {
		if _, err := w.Append(recovery.Record{Type: recovery.RecordOp, Data: payload}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := w.Replay(func(recovery.Record) error { count++; return nil }); err != nil {
			b.Fatal(err)
		}
		if count != 1000 {
			b.Fatalf("replayed %d", count)
		}
	}
}

// --- E10: codecs and bridging ---

func benchMessage() *wire.Message {
	return &wire.Message{
		ID: 42, Kind: wire.KindRequest, Src: "a", Dst: "b",
		Topic:   "sensors/bp",
		Headers: map[string]string{"trace": "t1"},
		Payload: []byte("42|120.2500|mmHg"),
	}
}

func benchCodecEncode(b *testing.B, c wire.Codec) {
	m := benchMessage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCodecDecode(b *testing.B, c wire.Codec) {
	m := benchMessage()
	data, err := c.Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecBinaryEncode(b *testing.B) { benchCodecEncode(b, wire.Binary{}) }
func BenchmarkCodecBinaryDecode(b *testing.B) { benchCodecDecode(b, wire.Binary{}) }
func BenchmarkCodecJSONEncode(b *testing.B)   { benchCodecEncode(b, wire.JSON{}) }
func BenchmarkCodecJSONDecode(b *testing.B)   { benchCodecDecode(b, wire.JSON{}) }
func BenchmarkCodecXMLEncode(b *testing.B)    { benchCodecEncode(b, wire.XML{}) }
func BenchmarkCodecXMLDecode(b *testing.B)    { benchCodecDecode(b, wire.XML{}) }

func BenchmarkTranscodeBinaryToXML(b *testing.B) {
	data, err := wire.Binary{}.Encode(benchMessage())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interop.Transcode(data, wire.Binary{}, wire.XML{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- transaction link ---

func BenchmarkLinkReliableSend(b *testing.B) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	defer tr.Close() //nolint:errcheck
	l, err := tr.Listen("peer")
	if err != nil {
		b.Fatal(err)
	}
	dialed, err := tr.Dial("peer")
	if err != nil {
		b.Fatal(err)
	}
	accepted, err := l.Accept()
	if err != nil {
		b.Fatal(err)
	}
	la := transaction.NewLink(dialed, transaction.LinkConfig{})
	lb := transaction.NewLink(accepted, transaction.LinkConfig{})
	defer la.Close() //nolint:errcheck
	defer lb.Close() //nolint:errcheck
	go func() {
		for {
			if _, err := lb.Recv(); err != nil {
				return
			}
		}
	}()
	m := &wire.Message{Kind: wire.KindData, Src: "a", Payload: make([]byte, 64)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := la.SendReliable(m); err != nil {
			b.Fatal(err)
		}
	}
}
