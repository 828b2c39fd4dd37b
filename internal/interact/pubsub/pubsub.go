// Package pubsub is the event-based interaction style (the paper's
// publish-subscribe middleware [67,68]): subscribers register topic
// patterns with a broker; publishers emit events the broker fans out
// asynchronously. Neither side knows the other — the space decoupling that
// lets plug-and-play components come and go.
//
// On the wire a publish is the event itself, a wire.KindEvent with an ID on
// its own topic: the broker sends that very message to every match, then
// acknowledges it by Corr. Subscribe and unsubscribe are requests.
//
// The Client is an endpoint.Caller, like the clients of the other three
// styles; events reach it as the caller's uncorrelated messages. The Broker
// shares endpoint.Server's listener lifecycle (transport.Served: one accept
// loop, connection set and Close) but not its dispatch: its per-connection
// loop fans each publish out inline, in connection order, before it
// acknowledges (endpoint.Server runs every request on a goroutine of its
// own, which gives that order up), and it pushes to connections that sent no
// request and drops a connection's subscriptions when it goes — push and
// disconnect are not endpoint concepts.
package pubsub

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"ndsm/internal/endpoint"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// Protocol topics of the two requests; an event is told by its kind.
const (
	topicSubscribe   = "ps.subscribe"
	topicUnsubscribe = "ps.unsubscribe"
)

// ErrClosed reports use of a closed endpoint.
var ErrClosed = errors.New("pubsub: closed")

// subscriberBuffer is each subscription's event queue depth; slow consumers
// drop (and count) rather than stall the broker.
const subscriberBuffer = 128

// Event is one published notification.
type Event struct {
	Topic   string
	Payload []byte
}

// MatchTopic reports whether a concrete topic matches a pattern. Patterns
// are exact strings or prefixes ending in "*" ("sensors/*").
func MatchTopic(pattern, topic string) bool {
	if pattern == "*" {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(topic, strings.TrimSuffix(pattern, "*"))
	}
	return pattern == topic
}

// subscription is a broker-side registration.
type subscription struct {
	pattern string
	conn    transport.Conn
}

// Broker fans published events out to matching subscribers. It owns every
// message it receives and recycles it (wire.Recycle) once the event has been
// sent on and acknowledged: nothing of a publish is kept.
type Broker struct {
	mu sync.Mutex
	// subs is every registration. It is replaced, never changed in place, so
	// a publish fans out over the slice it read without holding mu.
	subs   []subscription
	served transport.Served

	// Published and Dropped count events through the broker.
	Published atomic.Int64
	Dropped   atomic.Int64
}

// NewBroker starts a broker on the listener.
func NewBroker(l transport.Listener) *Broker {
	b := &Broker{}
	b.served.Serve(l, b.serveConn)
	return b
}

// Close stops the broker.
func (b *Broker) Close() error {
	b.served.Close()
	return nil
}

// Subscriptions reports the current registration count.
func (b *Broker) Subscriptions() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// replaceSubs installs a copy of the registrations without those drop
// selects and with add appended.
func (b *Broker) replaceSubs(drop func(subscription) bool, add ...subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	next := make([]subscription, 0, len(b.subs)+len(add))
	for _, sub := range b.subs {
		if !drop(sub) {
			next = append(next, sub)
		}
	}
	b.subs = append(next, add...)
}

func (b *Broker) serveConn(conn transport.Conn) {
	defer b.replaceSubs(func(sub subscription) bool { return sub.conn == conn })
	ack := &wire.Message{} // one for the connection: Send neither keeps nor changes it
	for {
		req, err := conn.Recv()
		if err != nil {
			return
		}
		*ack = wire.Message{Kind: wire.KindAck, Corr: req.ID, Topic: req.Topic}
		switch {
		case req.Kind == wire.KindEvent:
			b.Published.Add(1)
			b.fanout(req)
		case req.Topic == topicSubscribe || req.Topic == topicUnsubscribe:
			sub := subscription{pattern: string(req.Payload), conn: conn}
			same := func(other subscription) bool { return other == sub }
			if req.Topic == topicSubscribe {
				b.replaceSubs(same, sub)
			} else {
				b.replaceSubs(same)
			}
		default:
			ack.Kind, ack.Payload = wire.KindError, []byte(fmt.Sprintf("pubsub: unknown topic %q", req.Topic))
		}
		_ = conn.Send(ack)
		// The broker owns what it received and is done with it: every
		// subscriber's Send has encoded or cloned the event, a pattern was
		// copied out of its payload, and ack holds only its topic string.
		wire.Recycle(req)
	}
}

// fanout pushes the event to every matching subscription as it was received.
// The subscribers share the one message: Send neither keeps nor changes it.
func (b *Broker) fanout(ev *wire.Message) {
	ev.Corr = 0 // whatever a publisher put there: no subscriber's call may take the event for its reply
	b.mu.Lock()
	subs := b.subs
	b.mu.Unlock()
	for _, sub := range subs {
		if !MatchTopic(sub.pattern, ev.Topic) {
			continue
		}
		if err := sub.conn.Send(ev); err != nil {
			b.Dropped.Add(1)
		}
	}
}

// Client publishes and subscribes against a broker through an
// endpoint.Caller: requests are Caller.Do, and events — the connection's
// uncorrelated messages — arrive on the caller's OnRecv hook, which its one
// demux goroutine calls inline and in connection order.
type Client struct {
	caller *endpoint.Caller

	mu   sync.Mutex
	subs map[string]chan Event

	// DroppedEvents counts events discarded because a subscription channel
	// was full.
	DroppedEvents atomic.Int64
}

// Dial connects to a broker.
func Dial(tr transport.Transport, addr string) (*Client, error) {
	c := &Client{subs: make(map[string]chan Event)}
	caller, err := endpoint.NewCaller(tr, addr, endpoint.CallerOptions{Eager: true, OnRecv: c.deliver})
	if err != nil {
		return nil, fmt.Errorf("pubsub: dial %s: %w", addr, err)
	}
	c.caller = caller
	return c, nil
}

// Close shuts the client down; subscription channels are closed.
func (c *Client) Close() error {
	// Close waits for the demux, so no delivery is in progress afterwards.
	err := c.caller.Close()
	c.mu.Lock()
	for pattern, ch := range c.subs {
		close(ch)
		delete(c.subs, pattern)
	}
	c.mu.Unlock()
	return err
}

// deliver hands an event to every matching subscription. The sends never
// block, so they happen under c.mu, the lock Unsubscribe and Close close the
// channels under.
func (c *Client) deliver(m *wire.Message) {
	if m.Kind != wire.KindEvent {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for pattern, ch := range c.subs {
		if !MatchTopic(pattern, m.Topic) {
			continue
		}
		select {
		case ch <- Event{Topic: m.Topic, Payload: m.Payload}:
		default:
			c.DroppedEvents.Add(1)
		}
	}
}

func (c *Client) request(kind wire.Kind, topic string, payload []byte) error {
	ack, err := c.caller.Do(&endpoint.Call{
		Kind:    kind,
		Topic:   topic,
		Payload: payload,
		// The broker acknowledges at once; there is nothing to time out.
		Timeout: endpoint.NoTimeout,
	})
	if err == nil {
		wire.Recycle(ack) // nothing of an acknowledgement is kept
		return nil
	}
	if re, ok := endpoint.IsRemote(err); ok {
		return errors.New(re.Msg)
	}
	if errors.Is(err, endpoint.ErrClosed) || errors.Is(err, endpoint.ErrUnavailable) {
		return ErrClosed
	}
	return fmt.Errorf("pubsub: %w", err)
}

// Subscribe registers a pattern and returns the event channel. Subscribing
// the same pattern again returns the existing channel.
func (c *Client) Subscribe(pattern string) (<-chan Event, error) {
	c.mu.Lock()
	if ch, ok := c.subs[pattern]; ok {
		c.mu.Unlock()
		return ch, nil
	}
	ch := make(chan Event, subscriberBuffer)
	c.subs[pattern] = ch
	c.mu.Unlock()
	if err := c.request(wire.KindRequest, topicSubscribe, []byte(pattern)); err != nil {
		c.mu.Lock()
		delete(c.subs, pattern)
		c.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// Unsubscribe withdraws a pattern and closes its channel.
func (c *Client) Unsubscribe(pattern string) error {
	if err := c.request(wire.KindRequest, topicUnsubscribe, []byte(pattern)); err != nil {
		return err
	}
	c.mu.Lock()
	if ch, ok := c.subs[pattern]; ok {
		close(ch)
		delete(c.subs, pattern)
	}
	c.mu.Unlock()
	return nil
}

// Publish emits an event to a topic.
func (c *Client) Publish(topic string, payload []byte) error {
	return c.request(wire.KindEvent, topic, payload)
}
