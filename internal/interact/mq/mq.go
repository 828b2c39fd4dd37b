// Package mq is the message-oriented interaction style (MOM, the paper's
// "message-based techniques" [64,65]): named FIFO queues on a broker, with
// push, blocking pop (long-poll), and bounded depth. Producers and consumers
// are fully decoupled in time — the asynchrony §3.6 demands.
//
// The Client is an endpoint.Caller, like the clients of the other three
// styles. The Broker shares endpoint.Server's listener lifecycle
// (transport.Served: one accept loop, connection set and Close) but not its
// dispatch, because order is its contract: pushes pipelined on one connection
// are enqueued inline by its per-connection loop, in the order they arrived,
// and endpoint.Server runs every request on a goroutine of its own
// (TestPushAsyncPipelined fails on it at once). Only long-polling pops leave
// the loop, on goroutines Close waits for.
package mq

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"ndsm/internal/endpoint"
	"ndsm/internal/simtime"
	"ndsm/internal/trace"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// Queue protocol topics.
const (
	topicPush = "mq.push"
	topicPop  = "mq.pop"
)

// MQ errors.
var (
	ErrEmpty     = errors.New("mq: queue empty")
	ErrQueueFull = errors.New("mq: queue full")
	ErrClosed    = errors.New("mq: closed")
)

// DefaultMaxDepth bounds each queue unless the broker is configured
// otherwise.
const DefaultMaxDepth = 1024

// queue is one named FIFO with blocked-consumer wakeup.
type queue struct {
	mu      sync.Mutex
	items   [][]byte
	max     int
	waiters []chan []byte // blocked pops, FIFO
}

func (q *queue) push(data []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	// Hand directly to the oldest blocked consumer when one exists. A waiter
	// still on the list has an empty buffer: a pop that gives up withdraws
	// its waiter under q.mu, so this send never blocks and is never lost.
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		w <- data
		return nil
	}
	if len(q.items) >= q.max {
		return ErrQueueFull
	}
	q.items = append(q.items, data)
	return nil
}

// pop takes the oldest item, parking for a push up to wait when the queue is
// empty (a zero wait answers at once). It gives up when the wait runs out or
// done closes; ok is false when nothing came.
func (q *queue) pop(clock simtime.Clock, wait time.Duration, done <-chan struct{}) (item []byte, ok bool) {
	q.mu.Lock()
	if len(q.items) > 0 {
		item, q.items = q.items[0], q.items[1:]
		q.mu.Unlock()
		return item, true
	}
	if wait <= 0 {
		q.mu.Unlock()
		return nil, false
	}
	w := make(chan []byte, 1)
	q.waiters = append(q.waiters, w)
	q.mu.Unlock()
	timer := clock.Timer(clock.Now().Add(wait))
	defer timer.Stop()
	select {
	case item = <-w:
		return item, true
	case <-timer.C():
	case <-done:
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, other := range q.waiters {
		if other == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return nil, false
		}
	}
	// A push took the waiter off the list before we could: it sent under
	// q.mu, so the item is already in the buffer, and it is ours.
	return <-w, true
}

// Broker hosts named queues over a transport listener.
type Broker struct {
	clock    simtime.Clock
	maxDepth int

	served transport.Served

	mu     sync.Mutex
	queues map[string]*queue
}

// NewBroker starts a broker on the listener. maxDepth bounds each queue
// (DefaultMaxDepth if 0).
func NewBroker(l transport.Listener, maxDepth int, clock simtime.Clock) *Broker {
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	clock = simtime.OrReal(clock)
	b := &Broker{
		clock:    clock,
		maxDepth: maxDepth,
		queues:   make(map[string]*queue),
	}
	b.served.Serve(l, b.serveConn)
	return b
}

// Close stops the broker. Parked pops give up at once instead of holding it
// for the rest of their wait.
func (b *Broker) Close() error {
	b.served.Close()
	return nil
}

func (b *Broker) queue(name string) *queue {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.queues[name]
	if q == nil {
		q = &queue{max: b.maxDepth}
		b.queues[name] = q
	}
	return q
}

// popRequest is the pop call's JSON body.
type popRequest struct {
	Queue string `json:"queue"`
	// WaitMillis long-polls up to this long for an item (0: immediate).
	WaitMillis int64 `json:"waitMillis"`
}

func (b *Broker) serveConn(conn transport.Conn) {
	// Conn.Send is safe for concurrent use (long-poll replies come from
	// their own goroutines), and unserialized sends coalesce on TCP.
	reply := func(req *wire.Message, kind wire.Kind, payload []byte) {
		_ = conn.Send(&wire.Message{Kind: kind, Corr: req.ID, Topic: req.Topic, Payload: payload})
	}
	for {
		req, err := conn.Recv()
		if err != nil {
			return
		}
		switch req.Topic {
		case topicPush:
			// Headers carry the queue name; payload is the item.
			name := req.Headers["queue"]
			if name == "" {
				reply(req, wire.KindError, []byte("mq: missing queue header"))
				continue
			}
			if err := b.queue(name).push(req.Payload); err != nil {
				reply(req, wire.KindError, []byte(err.Error()))
				continue
			}
			reply(req, wire.KindAck, nil)
		case topicPop:
			var pr popRequest
			if err := json.Unmarshal(req.Payload, &pr); err != nil || pr.Queue == "" {
				reply(req, wire.KindError, []byte("mq: bad pop request"))
				continue
			}
			// Long-poll in its own goroutine so one blocked pop doesn't
			// stall other requests on this connection.
			b.served.Go(func() {
				item, ok := b.queue(pr.Queue).pop(b.clock, time.Duration(pr.WaitMillis)*time.Millisecond, b.served.Done())
				if !ok {
					reply(req, wire.KindError, []byte(ErrEmpty.Error()))
					return
				}
				reply(req, wire.KindReply, item)
			})
		default:
			reply(req, wire.KindError, []byte(fmt.Sprintf("mq: unknown topic %q", req.Topic)))
		}
	}
}

// Client talks to a broker through the shared endpoint engine. Safe for
// concurrent use; pops long-poll, so replies can arrive out of order and are
// demultiplexed by correlation ID inside the caller.
type Client struct {
	caller *endpoint.Caller
}

// Dial connects to a broker. Each operation records an "mq.call" span
// under tracer (nil: untraced).
func Dial(tr transport.Transport, addr string, tracer *trace.Tracer) (*Client, error) {
	c := &Client{}
	caller, err := endpoint.NewCaller(tr, addr, endpoint.CallerOptions{
		Eager: true,
		Interceptors: []endpoint.ClientInterceptor{
			endpoint.WithTracing(tracer, "mq.call"),
		},
	})
	if err != nil {
		return nil, fmt.Errorf("mq: dial %s: %w", addr, err)
	}
	c.caller = caller
	return c, nil
}

// Close shuts the client down.
func (c *Client) Close() error { return c.caller.Close() }

func (c *Client) request(topic string, headers map[string]string, payload []byte) (*wire.Message, error) {
	m, err := c.caller.Do(&endpoint.Call{
		Topic:   topic,
		Headers: headers,
		Payload: payload,
		// The broker owns all waiting (long-poll bounded by WaitMillis), so
		// the client itself waits without a local deadline, as before.
		Timeout: endpoint.NoTimeout,
	})
	if err != nil {
		return nil, clientErr(err)
	}
	return m, nil
}

// Push enqueues an item.
func (c *Client) Push(queueName string, data []byte) error {
	ack, err := c.request(topicPush, map[string]string{"queue": queueName}, data)
	wire.Recycle(ack) // nothing of an acknowledgement is kept
	return err
}

// PushAsync enqueues an item without blocking for the broker's ack: the
// request is pipelined onto the wire before PushAsync returns, so
// back-to-back pushes keep the connection full (and coalesce into batched
// frames on transports that support it). The returned handle resolves to
// exactly what Push would have returned.
func (c *Client) PushAsync(queueName string, data []byte) *PushHandle {
	fut := c.caller.Go(&endpoint.Call{
		Topic:   topicPush,
		Headers: map[string]string{"queue": queueName},
		Payload: data,
		Timeout: endpoint.NoTimeout,
	})
	return &PushHandle{fut: fut}
}

// PushHandle is a pending PushAsync: a promise for the broker's ack.
type PushHandle struct{ fut *endpoint.Future }

// Wait blocks for the acknowledgement and returns Push's error (nil once
// the item is durably queued, ErrQueueFull/ErrClosed/... otherwise).
func (h *PushHandle) Wait() error {
	if _, err := h.fut.Wait(); err != nil {
		return clientErr(err)
	}
	return nil
}

// Pop dequeues the oldest item, long-polling up to wait. It returns ErrEmpty
// when nothing arrives in time.
func (c *Client) Pop(queueName string, wait time.Duration) ([]byte, error) {
	body, err := json.Marshal(popRequest{Queue: queueName, WaitMillis: wait.Milliseconds()})
	if err != nil {
		return nil, fmt.Errorf("mq: encode pop: %w", err)
	}
	m, err := c.request(topicPop, nil, body)
	if err != nil {
		return nil, err
	}
	// The caller keeps the item; the decoded shell goes back bare.
	item := m.Payload
	m.Payload = nil
	wire.Recycle(m)
	return item, nil
}

// clientErr translates a failed call: the broker's error strings back to
// sentinel errors where possible, a lost or closed connection to ErrClosed.
func clientErr(err error) error {
	if re, ok := endpoint.IsRemote(err); ok {
		switch re.Msg {
		case ErrEmpty.Error():
			return ErrEmpty
		case ErrQueueFull.Error():
			return ErrQueueFull
		default:
			return errors.New(re.Msg)
		}
	}
	if errors.Is(err, endpoint.ErrClosed) || errors.Is(err, endpoint.ErrUnavailable) {
		return ErrClosed
	}
	return fmt.Errorf("mq: %w", err)
}
