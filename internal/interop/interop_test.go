package interop

import (
	"runtime"
	"testing"
	"time"

	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

func sample() *wire.Message {
	return &wire.Message{
		ID:       7,
		Kind:     wire.KindRequest,
		Src:      "a",
		Dst:      "b",
		Topic:    "bp/read",
		Priority: 2,
		Headers:  map[string]string{"k": "v"},
		Payload:  []byte("data"),
	}
}

func TestTranscodeAllPairs(t *testing.T) {
	codecs := []wire.Codec{wire.Binary{}, wire.XML{}, wire.JSON{}}
	m := sample()
	for _, from := range codecs {
		for _, to := range codecs {
			data, err := from.Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			out, err := Transcode(data, from, to)
			if err != nil {
				t.Fatalf("%s -> %s: %v", from.Name(), to.Name(), err)
			}
			got, err := to.Decode(out)
			if err != nil {
				t.Fatalf("%s decode: %v", to.Name(), err)
			}
			if !m.Equal(got) {
				t.Fatalf("%s -> %s lost information", from.Name(), to.Name())
			}
		}
	}
}

func TestTranscodeGarbage(t *testing.T) {
	if _, err := Transcode([]byte("junk"), wire.Binary{}, wire.JSON{}); err == nil {
		t.Fatal("garbage transcoded")
	}
}

func TestTopicPrefixRule(t *testing.T) {
	rule := TopicPrefixRule("bp/", "vitals/bp/")
	m := sample()
	m = rule(m)
	if m.Topic != "vitals/bp/read" {
		t.Fatalf("topic = %q", m.Topic)
	}
	m.Topic = "other/x"
	m = rule(m)
	if m.Topic != "other/x" {
		t.Fatalf("non-matching topic rewritten: %q", m.Topic)
	}
}

func TestHeaderRule(t *testing.T) {
	rule := HeaderRule("origin", "domain-a")
	m := &wire.Message{Kind: wire.KindData}
	m = rule(m)
	if m.Headers["origin"] != "domain-a" {
		t.Fatalf("headers = %v", m.Headers)
	}
}

func TestDropTopicRule(t *testing.T) {
	rule := DropTopicRule("private/")
	if rule(&wire.Message{Kind: wire.KindData, Topic: "private/secret"}) != nil {
		t.Fatal("private topic not dropped")
	}
	if rule(&wire.Message{Kind: wire.KindData, Topic: "public/x"}) == nil {
		t.Fatal("public topic dropped")
	}
}

// echoDomain starts domain B on a fabric of its own: an echo server at
// "service-b", stopped when the returned transport closes.
func echoDomain(t *testing.T) transport.Transport {
	t.Helper()
	trB := transport.NewMem(transport.NewFabric())
	t.Cleanup(func() { _ = trB.Close() })
	lB, err := trB.Listen("service-b")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := lB.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					m, err := conn.Recv()
					if err != nil {
						return
					}
					reply := &wire.Message{ID: 1000 + m.ID, Kind: wire.KindReply, Corr: m.ID, Topic: m.Topic, Payload: m.Payload}
					if err := conn.Send(reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	return trB
}

// gatewayFixture bridges domain A (one fabric) to domain B (another
// fabric) where an echo server lives.
func gatewayFixture(t *testing.T, cfgRules func(*GatewayConfig)) (*Gateway, transport.Transport) {
	t.Helper()
	trB := echoDomain(t)
	trA := transport.NewMem(transport.NewFabric())
	t.Cleanup(func() { _ = trA.Close() })
	// Gateway listens in domain A, dials domain B.
	lA, err := trA.Listen("gateway")
	if err != nil {
		t.Fatal(err)
	}
	cfg := GatewayConfig{
		Listener: lA,
		Dial:     func() (transport.Conn, error) { return trB.Dial("service-b") },
	}
	if cfgRules != nil {
		cfgRules(&cfg)
	}
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	return gw, trA
}

func callThrough(t *testing.T, trA transport.Transport, topic string) *wire.Message {
	t.Helper()
	conn, err := trA.Dial("gateway")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := conn.Send(&wire.Message{ID: 1, Kind: wire.KindRequest, Topic: topic, Payload: []byte("ping")}); err != nil {
		t.Fatal(err)
	}
	type result struct {
		m   *wire.Message
		err error
	}
	ch := make(chan result, 1)
	go func() {
		m, err := conn.Recv()
		ch <- result{m, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.m
	case <-time.After(5 * time.Second):
		t.Fatal("no reply through gateway")
		return nil
	}
}

func TestGatewayBridgesDomains(t *testing.T) {
	gw, trA := gatewayFixture(t, nil)
	reply := callThrough(t, trA, "svc/echo")
	if reply.Kind != wire.KindReply || string(reply.Payload) != "ping" {
		t.Fatalf("reply = %+v", reply)
	}
	ab, ba := gw.Forwarded()
	if ab != 1 || ba != 1 {
		t.Fatalf("forwarded = %d/%d", ab, ba)
	}
}

func TestGatewayAppliesRules(t *testing.T) {
	_, trA := gatewayFixture(t, func(cfg *GatewayConfig) {
		cfg.AtoB = []Rule{TopicPrefixRule("bp/", "vitals/bp/"), HeaderRule("via", "gw")}
	})
	reply := callThrough(t, trA, "bp/read")
	// The echo server saw the rewritten topic.
	if reply.Topic != "vitals/bp/read" {
		t.Fatalf("topic = %q", reply.Topic)
	}
}

func TestGatewayDropsFiltered(t *testing.T) {
	gw, trA := gatewayFixture(t, func(cfg *GatewayConfig) {
		cfg.AtoB = []Rule{DropTopicRule("private/")}
	})
	conn, err := trA.Dial("gateway")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&wire.Message{ID: 1, Kind: wire.KindRequest, Topic: "private/x"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for gw.Dropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("message not dropped")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGatewayCloseIdempotent(t *testing.T) {
	gw, _ := gatewayFixture(t, nil)
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGatewayDialFailureClosesClient(t *testing.T) {
	fabricA := transport.NewFabric()
	trA := transport.NewMem(fabricA)
	t.Cleanup(func() { _ = trA.Close() })
	lA, err := trA.Listen("gw")
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(GatewayConfig{
		Listener: lA,
		Dial: func() (transport.Conn, error) {
			return nil, transport.ErrConnectRefused
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	conn, err := trA.Dial("gw")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The gateway cannot reach domain B; our connection must be closed.
	done := make(chan error, 1)
	go func() {
		_, err := conn.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected closed connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client connection left dangling")
	}
}

func TestNewGatewayValidation(t *testing.T) {
	if _, err := NewGateway(GatewayConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// Close with a bridged pair open must return, and every goroutine the
// gateway and both domains started must end.
func TestGatewayCloseLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	trB := echoDomain(t)
	trA := transport.NewMem(transport.NewFabric())
	lA, err := trA.Listen("gateway")
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(GatewayConfig{
		Listener: lA,
		Dial:     func() (transport.Conn, error) { return trB.Dial("service-b") },
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := trA.Dial("gateway")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Message{ID: 1, Kind: wire.KindRequest, Topic: "svc/echo"}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // the pair is bridged
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		_ = gw.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting after 5 s")
	}
	if _, err := conn.Recv(); err == nil {
		t.Fatal("bridged connection still open after Close")
	}
	_ = conn.Close()
	_ = trA.Close()
	_ = trB.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before NewGateway", runtime.NumGoroutine(), before)
		}
	}
}
