// Package tuplespace is the shared-memory interaction style: a Linda-like
// tuple space (the paper cites T Spaces [69] and LIME [68,100], the latter
// by this paper's second author). Processes communicate by writing tuples
// into a shared space (Out) and reading (Rd) or consuming (In) tuples by
// template matching — fully decoupled in both time and space.
//
// Tuples are ordered string fields; templates match per field with "*" as
// the wildcard. A Space can be used in-process or served over any Transport:
// both remote halves ride internal/endpoint — the Server is three handlers on
// an endpoint.Server, the Client an endpoint.Caller — so a traced operation
// joins its caller's trace with no tuple-space instrumentation.
package tuplespace

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

// Wildcard matches any field value in a template.
const Wildcard = "*"

// Tuplespace errors.
var (
	ErrNoMatch = errors.New("tuplespace: no matching tuple")
	ErrClosed  = errors.New("tuplespace: closed")
)

// Tuple is an ordered sequence of string fields.
type Tuple []string

// Matches reports whether the tuple satisfies the template: equal length,
// each template field equal or Wildcard.
func (t Tuple) Matches(template Tuple) bool {
	if len(t) != len(template) {
		return false
	}
	for i, f := range template {
		if f != Wildcard && f != t[i] {
			return false
		}
	}
	return true
}

func (t Tuple) clone() Tuple { return append(Tuple(nil), t...) }

// waiter is a blocked In/Rd.
type waiter struct {
	template Tuple
	consume  bool
	ch       chan Tuple // capacity 1
}

// notification is a standing claim on future matching tuples (a LIME-style
// reaction).
type notification struct {
	template Tuple
	ch       chan Tuple
}

// Space is the in-process tuple space. All methods are safe for concurrent
// use.
type Space struct {
	clock simtime.Clock

	mu       sync.Mutex
	tuples   []Tuple
	waiters  []*waiter
	notifies map[*notification]struct{}
}

// NewSpace returns an empty space timing blocking operations against clock
// (real if nil).
func NewSpace(clock simtime.Clock) *Space {
	clock = simtime.OrReal(clock)
	return &Space{clock: clock}
}

// Out writes a tuple into the space, waking matching blocked readers: every
// pending Rd gets a copy; the oldest pending In consumes it (in which case
// the tuple is not stored). A reaction (NotifyTake) with room claims it
// before any of them.
func (s *Space) Out(t Tuple) {
	t = t.clone()
	s.mu.Lock()
	defer s.mu.Unlock()

	consumed := false
	// Reactions fire before blocked readers: they are standing requests
	// registered earlier by definition. At most one claims the tuple.
	for n := range s.notifies {
		if !t.Matches(n.template) {
			continue
		}
		select {
		case n.ch <- t.clone():
			consumed = true
		default: // a full reaction channel passes the tuple on; Out never blocks
		}
		if consumed {
			break
		}
	}

	kept := s.waiters[:0]
	for _, w := range s.waiters {
		if consumed && w.consume {
			kept = append(kept, w)
			continue
		}
		if !t.Matches(w.template) {
			kept = append(kept, w)
			continue
		}
		select {
		case w.ch <- t.clone():
			if w.consume {
				consumed = true
			}
			// satisfied waiter is dropped from the list either way
		default:
			// Waiter already satisfied or timed out; drop it.
		}
	}
	s.waiters = kept
	if !consumed {
		s.tuples = append(s.tuples, t)
	}
}

// notifyBuffer is each reaction channel's depth.
const notifyBuffer = 64

// NotifyTake registers a standing reaction: every future tuple matching the
// template is delivered to the returned channel instead of being stored (at
// most one reaction claims each tuple; a full channel leaves it stored).
// Call the cancel function to deregister; the channel is closed then.
func (s *Space) NotifyTake(template Tuple) (<-chan Tuple, func()) {
	n := &notification{template: template.clone(), ch: make(chan Tuple, notifyBuffer)}
	s.mu.Lock()
	if s.notifies == nil {
		s.notifies = make(map[*notification]struct{})
	}
	s.notifies[n] = struct{}{}
	s.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			s.mu.Lock()
			delete(s.notifies, n)
			s.mu.Unlock()
			close(n.ch)
		})
	}
	return n.ch, cancel
}

// RdP returns a copy of a matching tuple without removing it (non-blocking).
func (s *Space) RdP(template Tuple) (Tuple, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tuples {
		if t.Matches(template) {
			return t.clone(), true
		}
	}
	return nil, false
}

// InP removes and returns a matching tuple (non-blocking).
func (s *Space) InP(template Tuple) (Tuple, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, t := range s.tuples {
		if t.Matches(template) {
			s.tuples = append(s.tuples[:i], s.tuples[i+1:]...)
			return t, true
		}
	}
	return nil, false
}

// Rd blocks until a matching tuple exists (or timeout) and returns a copy.
func (s *Space) Rd(template Tuple, timeout time.Duration) (Tuple, error) {
	return s.blocking(template, false, timeout)
}

func (s *Space) blocking(template Tuple, consume bool, timeout time.Duration) (Tuple, error) {
	// Fast path.
	if consume {
		if t, ok := s.InP(template); ok {
			return t, nil
		}
	} else {
		if t, ok := s.RdP(template); ok {
			return t, nil
		}
	}
	w := &waiter{template: template.clone(), consume: consume, ch: make(chan Tuple, 1)}
	s.mu.Lock()
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()

	var expired <-chan time.Time // nil: no timeout, wait for a tuple
	if timeout > 0 {
		timer := s.clock.Timer(s.clock.Now().Add(timeout))
		defer timer.Stop()
		expired = timer.C()
	}
	select {
	case t := <-w.ch:
		return t, nil
	case <-expired:
		s.mu.Lock()
		for i, other := range s.waiters {
			if other == w {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		// A racing Out may have satisfied us between timeout and removal.
		select {
		case t := <-w.ch:
			return t, nil
		default:
		}
		return nil, fmt.Errorf("%w: %v after %v", ErrNoMatch, template, timeout)
	}
}

// --- remote access ---

// Protocol topics.
const (
	topicOut = "ts.out"
	topicIn  = "ts.in"
	topicRd  = "ts.rd"
)

// tsRequest is the remote operation body.
type tsRequest struct {
	Tuple      Tuple `json:"tuple"`
	WaitMillis int64 `json:"waitMillis,omitempty"`
}

// Server exposes a Space over a transport listener: three handlers on an
// endpoint.Server.
type Server struct {
	space *Space
	ep    *endpoint.Server
}

// NewServer starts serving space on l. A request that carries trace context
// continues its trace under tracer (nil: untraced).
func NewServer(space *Space, l transport.Listener, tracer *trace.Tracer) *Server {
	s := &Server{space: space}
	s.ep = endpoint.NewServer(l, endpoint.ServerOptions{
		Interceptors: []endpoint.ServerInterceptor{
			endpoint.WithServerTracing(tracer, "ts.serve"),
		},
	})
	s.ep.Handle(topicOut, s.out)
	s.ep.Handle(topicIn, s.take(true))
	s.ep.Handle(topicRd, s.take(false))
	return s
}

// Close stops the server and waits for blocked In/Rd requests to run out
// their waits.
func (s *Server) Close() error { return s.ep.Close() }

func decodeRequest(req *wire.Message) (tsRequest, error) {
	var body tsRequest
	if err := json.Unmarshal(req.Payload, &body); err != nil {
		return body, errors.New("tuplespace: bad request")
	}
	return body, nil
}

func (s *Server) out(req *wire.Message) (*wire.Message, error) {
	body, err := decodeRequest(req)
	if err != nil {
		return nil, err
	}
	s.space.Out(body.Tuple)
	return nil, nil // the endpoint acknowledges
}

// take serves In (consume) and Rd. A request that waits blocks its own
// handler goroutine; the endpoint gives every other request on the
// connection one of its own.
func (s *Server) take(consume bool) endpoint.Handler {
	return func(req *wire.Message) (*wire.Message, error) {
		body, err := decodeRequest(req)
		if err != nil {
			return nil, err
		}
		var (
			t  Tuple
			ok bool
		)
		switch wait := time.Duration(body.WaitMillis) * time.Millisecond; {
		case wait > 0:
			t, err = s.space.blocking(body.Tuple, consume, wait)
			ok = err == nil
		case consume:
			t, ok = s.space.InP(body.Tuple)
		default:
			t, ok = s.space.RdP(body.Tuple)
		}
		if !ok {
			// Bare: the client maps the text back to the sentinel.
			return nil, ErrNoMatch
		}
		out, err := json.Marshal(t)
		if err != nil {
			return nil, errors.New("tuplespace: encode tuple")
		}
		return endpoint.NewReply(out), nil
	}
}

// Client accesses a remote Space through an endpoint.Caller. Safe for
// concurrent use: a blocked In does not delay other operations on the same
// client.
type Client struct {
	caller *endpoint.Caller
}

// Dial connects to a tuple space server. Each operation records a "ts.call"
// span under tracer (nil: untraced).
func Dial(tr transport.Transport, addr string, tracer *trace.Tracer) (*Client, error) {
	caller, err := endpoint.NewCaller(tr, addr, endpoint.CallerOptions{
		Eager: true,
		Interceptors: []endpoint.ClientInterceptor{
			endpoint.WithTracing(tracer, "ts.call"),
		},
	})
	if err != nil {
		return nil, fmt.Errorf("tuplespace: dial %s: %w", addr, err)
	}
	return &Client{caller: caller}, nil
}

// Close shuts the client down.
func (c *Client) Close() error { return c.caller.Close() }

func (c *Client) request(topic string, body tsRequest) (*wire.Message, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("tuplespace: encode request: %w", err)
	}
	m, err := c.caller.Do(&endpoint.Call{
		Topic:   topic,
		Payload: payload,
		// The server owns the wait (WaitMillis); the client adds no deadline
		// of its own.
		Timeout: endpoint.NoTimeout,
	})
	if err != nil {
		if re, ok := endpoint.IsRemote(err); ok {
			if re.Msg == ErrNoMatch.Error() {
				return nil, ErrNoMatch
			}
			return nil, errors.New(re.Msg)
		}
		if errors.Is(err, endpoint.ErrClosed) || errors.Is(err, endpoint.ErrUnavailable) {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("tuplespace: %w", err)
	}
	return m, nil
}

// Out writes a tuple into the remote space.
func (c *Client) Out(t Tuple) error {
	ack, err := c.request(topicOut, tsRequest{Tuple: t})
	wire.Recycle(ack) // nothing of an acknowledgement is kept
	return err
}

// In removes and returns a matching tuple, waiting up to wait.
func (c *Client) In(template Tuple, wait time.Duration) (Tuple, error) {
	return c.take(topicIn, template, wait)
}

// Rd copies a matching tuple, waiting up to wait.
func (c *Client) Rd(template Tuple, wait time.Duration) (Tuple, error) {
	return c.take(topicRd, template, wait)
}

func (c *Client) take(topic string, template Tuple, wait time.Duration) (Tuple, error) {
	m, err := c.request(topic, tsRequest{Tuple: template, WaitMillis: wait.Milliseconds()})
	if err != nil {
		return nil, err
	}
	var t Tuple
	err = json.Unmarshal(m.Payload, &t)
	wire.Recycle(m) // the tuple holds copies of what it decoded
	if err != nil {
		return nil, fmt.Errorf("tuplespace: decode tuple: %w", err)
	}
	return t, nil
}
