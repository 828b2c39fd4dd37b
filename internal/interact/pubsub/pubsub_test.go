package pubsub

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ndsm/internal/endpoint"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

func fixture(t *testing.T) (*Broker, *Client, *Client) {
	t.Helper()
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	l, err := tr.Listen("bus")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(l)
	pub, err := Dial(transport.NewMem(fabric), "bus")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Dial(transport.NewMem(fabric), "bus")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = pub.Close()
		_ = sub.Close()
		_ = b.Close()
		_ = tr.Close()
	})
	return b, pub, sub
}

func recvEvent(t *testing.T, ch <-chan Event) Event {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("event channel closed")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("no event")
		return Event{}
	}
}

func expectNoEvent(t *testing.T, ch <-chan Event) {
	t.Helper()
	select {
	case ev := <-ch:
		t.Fatalf("unexpected event: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestMatchTopic(t *testing.T) {
	tests := []struct {
		pattern, topic string
		want           bool
	}{
		{"a/b", "a/b", true},
		{"a/b", "a/c", false},
		{"a/*", "a/b", true},
		{"a/*", "b/b", false},
		{"*", "anything", true},
		{"a*", "abc", true},
	}
	for _, tt := range tests {
		if got := MatchTopic(tt.pattern, tt.topic); got != tt.want {
			t.Errorf("MatchTopic(%q, %q) = %v", tt.pattern, tt.topic, got)
		}
	}
}

func TestPublishSubscribe(t *testing.T) {
	_, pub, sub := fixture(t)
	ch, err := sub.Subscribe("sensors/bp")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("sensors/bp", []byte("120/80")); err != nil {
		t.Fatal(err)
	}
	ev := recvEvent(t, ch)
	if ev.Topic != "sensors/bp" || string(ev.Payload) != "120/80" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestWildcardSubscription(t *testing.T) {
	_, pub, sub := fixture(t)
	ch, err := sub.Subscribe("sensors/*")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("sensors/hr", []byte("72")); err != nil {
		t.Fatal(err)
	}
	if ev := recvEvent(t, ch); ev.Topic != "sensors/hr" {
		t.Fatalf("event = %+v", ev)
	}
	if err := pub.Publish("actuators/display", []byte("x")); err != nil {
		t.Fatal(err)
	}
	expectNoEvent(t, ch)
}

func TestMultipleSubscribers(t *testing.T) {
	b, pub, sub1 := fixture(t)
	_ = b
	// sub1's fabric is shared through the fixture's transports; reuse pub's
	// transport for the second subscriber by dialing again.
	ch1, err := sub1.Subscribe("t")
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := pub.Subscribe("t") // a client can both publish and subscribe
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("t", []byte("fanout")); err != nil {
		t.Fatal(err)
	}
	if ev := recvEvent(t, ch1); string(ev.Payload) != "fanout" {
		t.Fatalf("sub1: %+v", ev)
	}
	if ev := recvEvent(t, ch2); string(ev.Payload) != "fanout" {
		t.Fatalf("sub2: %+v", ev)
	}
}

func TestUnsubscribe(t *testing.T) {
	b, pub, sub := fixture(t)
	ch, err := sub.Subscribe("t")
	if err != nil {
		t.Fatal(err)
	}
	if b.Subscriptions() != 1 {
		t.Fatalf("subscriptions = %d", b.Subscriptions())
	}
	if err := sub.Unsubscribe("t"); err != nil {
		t.Fatal(err)
	}
	if b.Subscriptions() != 0 {
		t.Fatalf("subscriptions after unsubscribe = %d", b.Subscriptions())
	}
	if err := pub.Publish("t", []byte("late")); err != nil {
		t.Fatal(err)
	}
	select {
	case ev, ok := <-ch:
		if ok {
			t.Fatalf("event after unsubscribe: %+v", ev)
		}
		// closed channel is the expected outcome
	case <-time.After(50 * time.Millisecond):
		t.Fatal("unsubscribed channel not closed")
	}
}

func TestPublishNoSubscribers(t *testing.T) {
	b, pub, _ := fixture(t)
	if err := pub.Publish("void", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if b.Published.Load() != 1 {
		t.Fatalf("published = %d", b.Published.Load())
	}
}

func TestSubscribeSamePatternTwice(t *testing.T) {
	_, _, sub := fixture(t)
	ch1, err := sub.Subscribe("t")
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := sub.Subscribe("t")
	if err != nil {
		t.Fatal(err)
	}
	if ch1 != ch2 {
		t.Fatal("duplicate subscribe returned a different channel")
	}
}

func TestSubscriberDisconnectCleansUp(t *testing.T) {
	b, pub, sub := fixture(t)
	if _, err := sub.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	_ = sub.Close()
	// Allow the broker to notice the disconnect.
	deadline := time.Now().Add(5 * time.Second)
	for b.Subscriptions() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("broker kept subscriptions of a dead client")
		}
		time.Sleep(time.Millisecond)
	}
	if err := pub.Publish("t", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestClientCloseClosesChannels(t *testing.T) {
	_, _, sub := fixture(t)
	ch, err := sub.Subscribe("t")
	if err != nil {
		t.Fatal(err)
	}
	_ = sub.Close()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("got event after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel not closed on client close")
	}
	_ = sub.Close() // idempotent
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial(transport.NewMem(transport.NewFabric()), "nowhere"); err == nil {
		t.Fatal("dial to nowhere succeeded")
	}
}

// Events from one publisher reach a subscriber in publish order, on the
// in-process transport and on TCP loopback.
func TestEventsArriveInPublishOrder(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		fabric := transport.NewFabric()
		testPublishOrder(t, "bus", func() transport.Transport { return transport.NewMem(fabric) })
	})
	t.Run("tcp", func(t *testing.T) {
		testPublishOrder(t, "127.0.0.1:0", func() transport.Transport { return transport.NewTCP(nil) })
	})
}

func testPublishOrder(t *testing.T, addr string, newTransport func() transport.Transport) {
	const n = 100 // under subscriberBuffer: nothing may be dropped
	tr := newTransport()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(l)
	sub, err := Dial(newTransport(), l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := Dial(newTransport(), l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = pub.Close()
		_ = sub.Close()
		_ = b.Close()
		_ = tr.Close()
	})
	ch, err := sub.Subscribe("seq")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := pub.Publish("seq", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if ev := recvEvent(t, ch); len(ev.Payload) != 1 || ev.Payload[0] != byte(i) {
			t.Fatalf("event %d carries %v", i, ev.Payload)
		}
	}
	if d := sub.DroppedEvents.Load(); d != 0 {
		t.Fatalf("dropped %d events", d)
	}
}

// The broker fans an event out before it acknowledges the publish, and one
// demux delivers both in connection order: a publisher subscribed to its own
// topic finds its copy waiting when Publish returns.
func TestOwnEventIsDeliveredBeforePublishReturns(t *testing.T) {
	_, pub, _ := fixture(t)
	ch, err := pub.Subscribe("self")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := pub.Publish("self", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-ch:
			if ev.Payload[0] != byte(i) {
				t.Fatalf("publish %d: got event %d", i, ev.Payload[0])
			}
		default:
			t.Fatalf("publish %d returned before its own event was delivered", i)
		}
	}
}

// Close during a stream of events closes every subscription channel exactly
// once and never sends on a closed one (a double close or a late send would
// panic; run under -race).
func TestCloseDuringEventStream(t *testing.T) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	l, err := tr.Listen("bus")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(l)
	pub, err := Dial(transport.NewMem(fabric), "bus")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = pub.Close()
		_ = b.Close()
		_ = tr.Close()
	})
	stop := make(chan struct{})
	publishing := make(chan struct{})
	go func() {
		defer close(publishing)
		for {
			select {
			case <-stop:
				return
			default:
				if err := pub.Publish("stream/a", []byte("x")); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}
	}()
	for round := 0; round < 200; round++ {
		sub, err := Dial(transport.NewMem(fabric), "bus")
		if err != nil {
			t.Fatal(err)
		}
		exact, err := sub.Subscribe("stream/a")
		if err != nil {
			t.Fatal(err)
		}
		prefix, err := sub.Subscribe("stream/*")
		if err != nil {
			t.Fatal(err)
		}
		recvEvent(t, exact) // the stream is flowing into this client
		if err := sub.Close(); err != nil {
			t.Fatal(err)
		}
		for _, ch := range []<-chan Event{exact, prefix} {
			for open := true; open; { // drain what was buffered, up to the close
				select {
				case _, open = <-ch:
				case <-time.After(5 * time.Second):
					t.Fatal("subscription channel left open by Close")
				}
			}
		}
	}
	close(stop)
	<-publishing
}

// A publish on a connection the broker closed reports ErrClosed whether the
// client's demux or its send notices the loss first.
func TestPublishAfterBrokerGone(t *testing.T) {
	b, pub, _ := fixture(t)
	_ = b.Close()
	for i := 0; i < 3; i++ {
		if err := pub.Publish("t", []byte("x")); !errors.Is(err, ErrClosed) {
			t.Fatalf("publish %d after broker close = %v, want ErrClosed", i, err)
		}
	}
}

// A publish is told by its kind, not its topic: an event addressed to a
// protocol topic is an event like any other and registers nothing.
func TestEventOnProtocolTopicIsAnEvent(t *testing.T) {
	b, pub, sub := fixture(t)
	ch, err := sub.Subscribe("*")
	if err != nil {
		t.Fatal(err)
	}
	for _, topic := range []string{topicSubscribe, topicUnsubscribe} {
		// The payload is the one live pattern: taken for a request it would
		// add a registration for pub or withdraw nothing of sub's — either
		// way the count or the delivery below would show it.
		if err := pub.Publish(topic, []byte("*")); err != nil {
			t.Fatalf("publish on %s: %v", topic, err)
		}
		if ev := recvEvent(t, ch); ev.Topic != topic || string(ev.Payload) != "*" {
			t.Fatalf("event on %s = %+v", topic, ev)
		}
		if n := b.Subscriptions(); n != 1 {
			t.Fatalf("an event on %s left %d subscriptions, want 1", topic, n)
		}
	}
	if n := b.Published.Load(); n != 2 {
		t.Fatalf("published = %d, want 2", n)
	}
}

// The request form of a publish is gone: the broker answers it as it answers
// any topic it does not serve, and fans nothing out.
func TestOldPublishRequestIsUnknown(t *testing.T) {
	b, _, sub := fixture(t)
	ch, err := sub.Subscribe("*")
	if err != nil {
		t.Fatal(err)
	}
	_, err = sub.caller.Do(&endpoint.Call{
		Topic:   "ps.publish",
		Headers: map[string]string{"topic": "t"},
		Payload: []byte("x"),
		Timeout: 5 * time.Second,
	})
	re, remote := endpoint.IsRemote(err)
	if !remote || !strings.Contains(re.Msg, `unknown topic "ps.publish"`) {
		t.Fatalf("old-form publish = %v, want the unknown-topic error reply", err)
	}
	expectNoEvent(t, ch)
	if n := b.Published.Load(); n != 0 {
		t.Fatalf("published = %d, want 0", n)
	}
}

// An event that arrives carrying a correlation ID is fanned out without it: a
// subscriber's demux must pass it on as an event, not hand it to whichever of
// the subscriber's own calls has that ID.
func TestFanoutClearsCorr(t *testing.T) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	l, err := tr.Listen("bus")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(l)
	t.Cleanup(func() {
		_ = b.Close()
		_ = tr.Close()
	})
	dial := func() transport.Conn {
		conn, err := transport.NewMem(fabric).Dial("bus")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		return conn
	}
	exchange := func(conn transport.Conn, m *wire.Message) *wire.Message {
		t.Helper()
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
		got, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	sub, pub := dial(), dial()
	if ack := exchange(sub, &wire.Message{ID: 99, Kind: wire.KindRequest, Topic: topicSubscribe, Payload: []byte("t")}); ack.Kind != wire.KindAck || ack.Corr != 99 {
		t.Fatalf("subscribe answered with %+v", ack)
	}
	if ack := exchange(pub, &wire.Message{ID: 7, Corr: 99, Kind: wire.KindEvent, Topic: "t", Payload: []byte("x")}); ack.Kind != wire.KindAck || ack.Corr != 7 {
		t.Fatalf("publish answered with %+v", ack)
	}
	ev, err := sub.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != wire.KindEvent || ev.Corr != 0 || ev.Topic != "t" || string(ev.Payload) != "x" {
		t.Fatalf("fanned-out event = %+v, want the event with no correlation ID", ev)
	}
}

// fanoutWorld is the shape of the load benchmark's pubsub_fanout_tcp: a broker
// on TCP loopback, four subscribers on "bench/*", one synchronous publisher
// rotating through 16 topics with a 64-byte payload.
type fanoutWorld struct {
	pub     *Client
	events  []<-chan Event
	topics  []string
	payload []byte
	next    int
}

func newFanoutWorld(t *testing.T) *fanoutWorld {
	t.Helper()
	tr := transport.NewTCP(nil)
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(l)
	w := &fanoutWorld{payload: make([]byte, 64)}
	var clients []*Client
	for i := 0; i < 5; i++ {
		c, err := Dial(transport.NewTCP(nil), l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	t.Cleanup(func() {
		for _, c := range clients {
			_ = c.Close()
		}
		_ = b.Close()
		_ = tr.Close()
	})
	w.pub = clients[0]
	for _, c := range clients[1:] {
		ch, err := c.Subscribe("bench/*")
		if err != nil {
			t.Fatal(err)
		}
		w.events = append(w.events, ch)
	}
	for i := 0; i < 16; i++ {
		w.topics = append(w.topics, fmt.Sprintf("bench/%04x", i))
	}
	return w
}

// publish emits one event and waits until every subscriber has it.
func (w *fanoutWorld) publish(t *testing.T) {
	topic := w.topics[w.next%len(w.topics)]
	w.next++
	if err := w.pub.Publish(topic, w.payload); err != nil {
		t.Fatal(err)
	}
	for i, ch := range w.events {
		if ev := <-ch; ev.Topic != topic {
			t.Fatalf("subscriber %d got an event on %s, want %s", i, ev.Topic, topic)
		}
	}
}

// Close with a subscriber attached while events flow must return, and every
// goroutine the broker and its clients started must end.
func TestCloseUnderTrafficLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	l, err := tr.Listen("bus")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(l)
	pub, err := Dial(transport.NewMem(fabric), "bus")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Dial(transport.NewMem(fabric), "bus")
	if err != nil {
		t.Fatal(err)
	}
	events, err := sub.Subscribe("stream/*")
	if err != nil {
		t.Fatal(err)
	}
	publishing := make(chan struct{})
	go func() {
		defer close(publishing)
		for pub.Publish("stream/a", []byte("x")) == nil {
		}
	}()
	recvEvent(t, events) // the stream is flowing into the subscriber
	closed := make(chan struct{})
	go func() {
		_ = b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting after 5 s")
	}
	<-publishing // the broker is gone, so a publish fails
	_ = pub.Close()
	_ = sub.Close()
	_ = tr.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before NewBroker", runtime.NumGoroutine(), before)
		}
	}
}
