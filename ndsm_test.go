// Public-API tests: everything here uses only the exported facade, the way
// a downstream user would.
package ndsm_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ndsm"
	"ndsm/milan"
	"ndsm/sensorsim"
	"ndsm/simnet"
)

func TestPublicQuickstartFlow(t *testing.T) {
	fabric := ndsm.NewFabric()
	registry := ndsm.NewStore(nil, 0)

	sup, err := ndsm.NewNode(ndsm.NodeConfig{
		Name: "sup", Transport: ndsm.NewMemTransport(fabric), Registry: registry,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close() //nolint:errcheck
	err = sup.Serve(&ndsm.Description{Name: "svc", Reliability: 0.9, PowerLevel: 1},
		func(p []byte) ([]byte, error) { return append([]byte("got:"), p...), nil })
	if err != nil {
		t.Fatal(err)
	}

	con, err := ndsm.NewNode(ndsm.NodeConfig{
		Name: "con", Transport: ndsm.NewMemTransport(fabric), Registry: registry,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close() //nolint:errcheck
	b, err := con.Bind(&ndsm.Spec{Query: ndsm.Query{Name: "svc"}}, ndsm.BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck
	out, err := b.Request([]byte("x"))
	if err != nil || string(out) != "got:x" {
		t.Fatalf("out=%q err=%v", out, err)
	}
}

func TestPublicCodecsAndTranscode(t *testing.T) {
	m := &ndsm.Message{ID: 1, Kind: 1 /* KindRequest */, Topic: "t", Payload: []byte("p")}
	data, err := ndsm.BinaryCodec{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	xml, err := ndsm.Transcode(data, ndsm.BinaryCodec{}, ndsm.XMLCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(xml), "<message") {
		t.Fatalf("xml = %s", xml)
	}
}

func TestPublicQoSSelection(t *testing.T) {
	now := time.Now()
	spec := &ndsm.Spec{Query: ndsm.Query{Name: "p"}, Weights: ndsm.Weights{Reliability: 1}}
	best := ndsm.Select(spec, []*ndsm.Description{
		{Name: "p", Provider: "a", Reliability: 0.2, PowerLevel: 1},
		{Name: "p", Provider: "b", Reliability: 0.9, PowerLevel: 1},
	}, now)
	if best == nil || best.Provider != "b" {
		t.Fatalf("best = %+v", best)
	}
}

func TestPublicSchedulerAndRecovery(t *testing.T) {
	if !ndsm.RMAdmissible([]ndsm.RTTask{{C: time.Millisecond, T: 10 * time.Millisecond}}) {
		t.Fatal("trivial task set rejected")
	}
	w, err := ndsm.OpenWAL(t.TempDir()+"/wal.log", ndsm.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() //nolint:errcheck
	if _, err := w.Append(ndsm.WALRecord{Type: 1, Data: []byte("op")}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSimnetAndMilan(t *testing.T) {
	net := simnet.New(simnet.Config{Range: 30})
	defer net.Close()
	if err := net.AddNodeEnergy("sink", simnet.Position{}, 1000); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNodeEnergy("s1", simnet.Position{X: 10}, 0.5); err != nil {
		t.Fatal(err)
	}
	sys := &milan.System{
		App: milan.AppSpec{
			Variables: []milan.Variable{"v"},
			Required:  map[milan.State]map[milan.Variable]float64{"on": {"v": 0.5}},
		},
		Sensors: []milan.Sensor{{Node: "s1", QoS: map[milan.Variable]float64{"v": 0.8}, SampleBytes: 50}},
		Sink:    "sink",
		Range:   30,
	}
	mgr, err := milan.NewManager(sys, net, milan.Exhaustive{}, "on")
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Round(); err != nil {
		t.Fatal(err)
	}
	if mgr.Stats().Delivered != 1 {
		t.Fatalf("stats = %+v", mgr.Stats())
	}
}

func TestPublicMilanInfeasible(t *testing.T) {
	sys := &milan.System{
		App: milan.AppSpec{
			Variables: []milan.Variable{"v"},
			Required:  map[milan.State]map[milan.Variable]float64{"on": {"v": 0.99}},
		},
		Sensors: []milan.Sensor{{Node: "s1", QoS: map[milan.Variable]float64{"v": 0.5}}},
		Sink:    "sink",
	}
	_, err := (milan.Exhaustive{}).Select(sys, "on", milan.Energies{"s1": 1}, nil)
	if !errors.Is(err, milan.ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicSensorsim(t *testing.T) {
	g := sensorsim.BloodPressure(1)
	r := g.Next()
	decoded, err := sensorsim.DecodeReading(r.Encode())
	if err != nil || decoded.Unit != "mmHg" {
		t.Fatalf("decoded = %+v, %v", decoded, err)
	}
	c := sensorsim.Classifier{Low: 90, High: 140}
	if v := c.Classify(sensorsim.Reading{Value: 200}); v != "high" {
		t.Fatalf("classify = %s", v)
	}
}

func TestPublicLocationService(t *testing.T) {
	ls := simnet.NewLocationService()
	ls.Update("n1", ndsm.Location{X: 1, Y: 2}, "ward/3", time.Now())
	if all := ls.All(); len(all) != 1 || all[0].Node != "n1" || all[0].Logical != "ward/3" {
		t.Fatalf("entries = %+v", all)
	}
}
