package discovery

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ndsm/internal/endpoint"
	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
	"ndsm/internal/trace"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// Registry protocol topics (centralized organization). Requests are
// KindControl messages; replies are KindReply (success) or KindError with
// the error text as payload. Exported so other servers speaking the same
// protocol (a registry-cluster node) stay on one topic vocabulary.
const (
	TopicRegister   = "disc.register"
	TopicUnregister = "disc.unregister"
	TopicRenew      = "disc.renew"
	TopicLookup     = "disc.lookup"
)

// Sweeper is implemented by backings whose lease table benefits from
// periodic expiry (Store, a cluster node's replicated table).
type Sweeper interface {
	// Sweep removes expired entries, returning how many were removed.
	Sweep() int
}

// ServerOptions tunes a registry server beyond its defaults.
type ServerOptions struct {
	// Clock times the sweep ticker and the dispatch metrics (simtime.Real if
	// nil).
	Clock simtime.Clock
	// SweepEvery drives lease expiry from a ticker so a quiet registry still
	// sheds dead leases: without it, expiry only happens opportunistically on
	// the next incoming request, and a registry nobody talks to keeps corpses
	// forever. Zero disables the ticker (requests still sweep).
	SweepEvery time.Duration
	// Metrics receives the server's instruments (nil: counted nowhere).
	Metrics *obs.Registry
	// Tracer continues the traces requests carry (nil: untraced).
	Tracer *trace.Tracer
}

// Server exposes any Resolver backing over a transport listener via the
// shared endpoint engine, speaking the centralized registry protocol.
type Server struct {
	backing Resolver
	store   *Store // non-nil when the backing is a plain Store
	sweeper Sweeper
	ep      *endpoint.Server

	sweep *simtime.Loop // nil without ServerOptions.SweepEvery
}

// NewServer starts serving the store on the listener in a background
// accept loop.
func NewServer(store *Store, l transport.Listener) *Server {
	return NewResolverServer(store, l, ServerOptions{})
}

// NewResolverServer starts serving any Resolver backing on the listener —
// the same wire protocol NewServer speaks, over whatever lease table the
// backing keeps.
func NewResolverServer(backing Resolver, l transport.Listener, opts ServerOptions) *Server {
	s := &Server{backing: backing}
	s.store, _ = backing.(*Store)
	s.sweeper, _ = backing.(Sweeper)
	s.ep = endpoint.NewServer(l, endpoint.ServerOptions{
		Kinds:           []wire.Kind{wire.KindControl, wire.KindRequest},
		Clock:           opts.Clock,
		Metrics:         opts.Metrics,
		DispatchMetrics: "discovery.server",
		Interceptors: []endpoint.ServerInterceptor{
			endpoint.WithServerTracing(opts.Tracer, "disc.serve"),
			s.sweepFirst,
		},
		Fallback: func(req *wire.Message) (*wire.Message, error) {
			return nil, fmt.Errorf("discovery: unknown topic %q", req.Topic)
		},
	})
	s.ep.Handle(TopicRegister, s.handleRegister)
	s.ep.Handle(TopicUnregister, s.handleUnregister)
	s.ep.Handle(TopicRenew, s.handleRenew)
	s.ep.Handle(TopicLookup, s.handleLookup)
	if opts.SweepEvery > 0 && s.sweeper != nil {
		s.sweep = simtime.Every(simtime.OrReal(opts.Clock), opts.SweepEvery, func() { s.sweeper.Sweep() })
	}
	return s
}

// sweepFirst expires stale leases before every operation.
func (s *Server) sweepFirst(next endpoint.Handler) endpoint.Handler {
	return func(req *wire.Message) (*wire.Message, error) {
		if s.sweeper != nil {
			s.sweeper.Sweep()
		}
		return next(req)
	}
}

// Addr returns the listener's bound address.
func (s *Server) Addr() string { return s.ep.Addr() }

// Handle registers an extra topic on the server's listener — how a cluster
// node rides its registry listener for gossip without a second protocol
// port.
func (s *Server) Handle(topic string, h endpoint.Handler) { s.ep.Handle(topic, h) }

// Close stops the sweep ticker and the endpoint server.
func (s *Server) Close() error {
	s.sweep.Stop()
	return s.ep.Close()
}

func (s *Server) handleRegister(req *wire.Message) (*wire.Message, error) {
	d, err := svcdesc.UnmarshalDescription(req.Payload)
	if err != nil {
		return nil, err
	}
	if s.store != nil {
		// The decoded description is valid, shares nothing with the request
		// (whose buffer is recycled once this returns) and is nobody else's,
		// so a plain Store keeps it without the copy Register makes.
		s.store.keep(d)
		return nil, nil // the endpoint acknowledges
	}
	return nil, s.backing.Register(d)
}

func (s *Server) handleUnregister(req *wire.Message) (*wire.Message, error) {
	return nil, s.backing.Unregister(string(req.Payload))
}

func (s *Server) handleRenew(req *wire.Message) (*wire.Message, error) {
	return nil, s.backing.Renew(string(req.Payload))
}

func (s *Server) handleLookup(req *wire.Message) (*wire.Message, error) {
	q, err := svcdesc.UnmarshalQuery(req.Payload)
	if err != nil {
		return nil, err
	}
	descs, err := s.backing.Lookup(q)
	if err != nil {
		return nil, err
	}
	payload, err := svcdesc.MarshalDescriptionList(descs)
	if err != nil {
		return nil, err
	}
	return &wire.Message{Kind: wire.KindReply, Payload: payload}, nil
}

// Client is the centralized organization's Resolver implementation: the
// registry protocol spoken through an endpoint.Caller, with lazy dialing,
// one redial-and-retry on connection-level failures, and per-call timeouts.
type Client struct {
	caller  *endpoint.Caller
	metrics *obs.Registry

	mu      sync.Mutex
	timeout time.Duration
}

var _ Resolver = (*Client)(nil)

// NewClient returns a client that will connect lazily to the registry at
// addr over tr. It counts and traces nothing; see NewInstrumentedClient.
func NewClient(tr transport.Transport, addr string) *Client {
	return NewInstrumentedClient(tr, addr, nil, nil)
}

// NewInstrumentedClient is NewClient counting into reg, the registry of the
// node the client runs on — its calls as "discovery.client.*", its lookups as
// "discovery.lookup.*" — and tracing its calls under tracer. Either may be
// nil.
func NewInstrumentedClient(tr transport.Transport, addr string, reg *obs.Registry, tracer *trace.Tracer) *Client {
	c := &Client{metrics: reg}
	// NewCaller without Eager cannot fail: the dial happens on first use.
	c.caller, _ = endpoint.NewCaller(tr, addr, endpoint.CallerOptions{
		Redial: true,
		Interceptors: []endpoint.ClientInterceptor{
			// Tracing outermost: the span covers the retry loop, so one
			// registry call with a redial is still one span on the timeline.
			endpoint.WithTracing(tracer, "disc.call"),
			// The pre-endpoint client reconnected and re-sent exactly once
			// after a torn-down connection or an expired wait; WithRetry's
			// one retry reproduces that.
			endpoint.WithRetry(true, reg, "discovery.client"),
			endpoint.WithMetrics(reg, "discovery.client"),
		},
	})
	return c
}

// SetCallTimeout bounds each request/response exchange: if the registry's
// reply does not arrive within d the call fails (after one retry). Without a
// timeout a lost reply datagram blocks the caller forever — unacceptable on
// lossy radio substrates, where the adaptive registry needs the central
// organization to *fail* so it can fall back to flooding. A zero d restores
// unbounded waits.
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// Register implements Resolver.
func (c *Client) Register(d *svcdesc.Description) error {
	bp := descBufs.Get().(*[]byte)
	defer descBufs.Put(bp)
	payload, err := marshalInto(bp, d)
	if err != nil {
		return err
	}
	return c.send(TopicRegister, payload)
}

// descBufs holds the buffers registrations are written into. A transport has
// copied or written a payload by the time Do or Go returns (transport.Conn
// keeps nothing it is handed), so a buffer is free again as soon as its
// request is sent.
var descBufs = sync.Pool{New: func() any { return new([]byte) }}

// marshalInto writes d's canonical form over the buffer *bp, keeping the
// buffer if it had to grow, and returns the form.
func marshalInto(bp *[]byte, d *svcdesc.Description) ([]byte, error) {
	b, err := svcdesc.AppendDescription((*bp)[:0], d)
	if err == nil {
		*bp = b
	}
	return b, err
}

// Unregister implements Resolver.
func (c *Client) Unregister(key string) error {
	return c.send(TopicUnregister, []byte(key))
}

// Renew implements Resolver.
func (c *Client) Renew(key string) error {
	return c.send(TopicRenew, []byte(key))
}

// Lookup implements Resolver. Every query lands in exactly one of
// discovery.lookup.hits, misses and errors, a reply that does not decode
// among the errors; its latency is the call's own stopwatch.
func (c *Client) Lookup(q *svcdesc.Query) ([]*svcdesc.Description, error) {
	payload, err := svcdesc.MarshalQuery(q)
	if err != nil {
		return nil, err
	}
	r := c.metrics
	r.Counter("discovery.lookup.queries").Inc(1)
	reply, elapsed, err := c.call(TopicLookup, payload)
	r.Histogram("discovery.lookup.latency_ms").Observe(float64(elapsed) / float64(time.Millisecond))
	var descs []*svcdesc.Description
	if err == nil {
		descs, err = svcdesc.UnmarshalDescriptionList(reply.Payload)
		wire.Recycle(reply) // the descriptions copied what they hold
	}
	switch {
	case err != nil:
		r.Counter("discovery.lookup.errors").Inc(1)
		return nil, err
	case len(descs) > 0:
		r.Counter("discovery.lookup.hits").Inc(1)
	default:
		r.Counter("discovery.lookup.misses").Inc(1)
	}
	return descs, nil
}

// Close implements Resolver.
func (c *Client) Close() error { return c.caller.Close() }

// call performs one request/response exchange through the endpoint, maps
// its errors back onto the discovery protocol's vocabulary, and returns how
// long the exchange took, retry included (endpoint.Call.Elapsed).
func (c *Client) call(topic string, payload []byte) (*wire.Message, time.Duration, error) {
	timeout := c.callTimeout()
	call := endpoint.Call{
		Kind:    wire.KindControl,
		Topic:   topic,
		Payload: payload,
		Timeout: timeout,
	}
	reply, err := c.caller.Do(&call)
	if err != nil {
		return nil, call.Elapsed(), translateErr(topic, timeout, err)
	}
	return reply, call.Elapsed(), nil
}

// send is call for an operation whose reply says nothing but that it
// succeeded: the reply goes back for the next decode (wire.Recycle).
func (c *Client) send(topic string, payload []byte) error {
	reply, _, err := c.call(topic, payload)
	wire.Recycle(reply)
	return err
}

func (c *Client) callTimeout() time.Duration {
	c.mu.Lock()
	timeout := c.timeout
	c.mu.Unlock()
	if timeout <= 0 {
		timeout = endpoint.NoTimeout
	}
	return timeout
}

// translateErr maps endpoint outcomes onto the discovery error vocabulary.
func translateErr(topic string, timeout time.Duration, err error) error {
	if re, ok := endpoint.IsRemote(err); ok {
		return fmt.Errorf("discovery: registry: %s", re.Msg)
	}
	if errors.Is(err, endpoint.ErrTimeout) {
		return fmt.Errorf("discovery: %s: no reply within %v", topic, timeout)
	}
	if errors.Is(err, endpoint.ErrClosed) {
		return ErrClosed
	}
	return fmt.Errorf("discovery: %s: %w", topic, err)
}
