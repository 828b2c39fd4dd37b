// Package core is the middleware kernel (§3.1): it hosts service suppliers
// and service consumers on a Node, wires discovery, QoS selection,
// transactions, and recovery together, and runs the adaptation loop that
// gives applications plug-and-play behaviour and graceful degradation —
// when a bound supplier fails or its achieved QoS collapses, the kernel
// re-matches and rebinds without application involvement.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"ndsm/internal/discovery"
	"ndsm/internal/endpoint"
	"ndsm/internal/health"
	"ndsm/internal/obs"
	"ndsm/internal/reqlog"
	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
	"ndsm/internal/trace"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// Handler serves one request for a hosted service. payload is valid until the
// handler returns: the node reuses its memory for a later request once the
// reply is sent. The reply may be payload or a slice of it; copy what must
// outlive the call.
type Handler func(payload []byte) ([]byte, error)

// Core errors.
var (
	ErrNodeClosed     = errors.New("core: node closed")
	ErrNoSupplier     = errors.New("core: no feasible supplier")
	ErrServiceExists  = errors.New("core: service already hosted")
	ErrUnknownService = errors.New("core: unknown service")
)

// Config assembles a Node.
type Config struct {
	// Name is the node's address on its transport (what suppliers advertise
	// as Provider).
	Name string
	// Transport carries all of the node's traffic.
	Transport transport.Transport
	// Registry is the discovery organization the node uses (centralized
	// client, flood agent, mirrored, adaptive — anything).
	Registry discovery.Resolver
	// Clock times QoS, leases and dispatch metrics (default real).
	Clock simtime.Clock
	// Health is the optional liveness layer. When set, the node's registry
	// lookups feed it heartbeats (providers listed in results are alive),
	// bindings skip suspected peers at selection time, rebind proactively on
	// suspicion, and gate every request through the per-peer circuit
	// breaker. Nil disables all of it.
	Health *health.Monitor
	// MaxInFlight bounds the node's concurrent in-flight server requests
	// (admission control); excess requests are shed with a retryable
	// rejection. 0 means unlimited.
	MaxInFlight int
	// Lanes enables priority-lane admission control over the MaxInFlight
	// pool (per-lane quotas, shared-pool borrowing, benefit-aware queue
	// shedding — see endpoint.LaneConfig). Expiry decisions run on the
	// node's Clock, the one its bindings stamp deadlines from.
	Lanes *endpoint.LaneConfig
	// Metrics receives the node's instruments — server dispatch counters,
	// binding call latency, shed counts. Nil counts nowhere, and the metrics
	// interceptors are left out. The program that owns the node makes its
	// registry and hands the same one to the node's other components
	// (transport, discovery client, WAL, telemetry), so one snapshot
	// describes this node and no other.
	Metrics *obs.Registry
	// Tracer records causal spans for the node's bindings and dispatches.
	// Nil leaves tracing off and the tracing interceptors out.
	Tracer *trace.Tracer
	// ReqLog is the node's wide-event recorder: every server dispatch and
	// shed, and every binding call, lands in it as one structured record
	// (see reqlog). Nil disables request analytics.
	ReqLog *reqlog.Recorder
	// TopicLanes classifies binding calls into admission lanes by service
	// topic: a binding's calls take their lane from this table, and default
	// where it names none.
	TopicLanes *endpoint.LaneTable
}

// Node is one middleware endpoint: it serves any number of supplier services
// on a single listener and opens QoS-managed consumer bindings.
type Node struct {
	name       string
	tr         transport.Transport
	registry   discovery.Resolver
	clock      simtime.Clock
	health     *health.Monitor
	metrics    *obs.Registry
	tracer     *trace.Tracer
	reqlog     *reqlog.Recorder
	topicLanes *endpoint.LaneTable

	// ep serves all hosted suppliers on the node's single listener through
	// the shared request/reply engine.
	ep *endpoint.Server

	mu        sync.Mutex
	suppliers map[string]*supplier // by service name
	bindings  []*Binding           // live ones: Binding.Close drops its own
	closed    bool
}

// supplier is one hosted service.
type supplier struct {
	desc    *svcdesc.Description
	handler Handler
}

// NewNode starts a node: it binds the transport listener immediately.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Name == "" {
		return nil, errors.New("core: node needs a name")
	}
	if cfg.Transport == nil {
		return nil, errors.New("core: node needs a transport")
	}
	if cfg.Registry == nil {
		return nil, errors.New("core: node needs a registry")
	}
	cfg.Clock = simtime.OrReal(cfg.Clock)
	l, err := cfg.Transport.Listen(cfg.Name)
	if err != nil {
		return nil, fmt.Errorf("core: listen %s: %w", cfg.Name, err)
	}
	// With a health monitor attached, every lookup result doubles as a
	// heartbeat source: providers listed by discovery renewed a lease or
	// answered a flood — evidence of life the detector is built on.
	registry := health.WatchRegistry(cfg.Registry, cfg.Health)
	n := &Node{
		name:       cfg.Name,
		tr:         cfg.Transport,
		registry:   registry,
		clock:      cfg.Clock,
		health:     cfg.Health,
		metrics:    cfg.Metrics,
		tracer:     cfg.Tracer,
		reqlog:     cfg.ReqLog,
		topicLanes: cfg.TopicLanes,
		suppliers:  make(map[string]*supplier),
	}
	n.ep = endpoint.NewServer(l, endpoint.ServerOptions{
		Name:            cfg.Name,
		Kinds:           []wire.Kind{wire.KindRequest},
		MaxInFlight:     cfg.MaxInFlight,
		Lanes:           cfg.Lanes,
		Metrics:         cfg.Metrics,
		DispatchMetrics: "core.node",
		ReqLog:          cfg.ReqLog,
		Clock:           cfg.Clock,
		Interceptors: []endpoint.ServerInterceptor{
			endpoint.WithServerTracing(cfg.Tracer, "core.node.serve"),
		},
		Fallback: func(req *wire.Message) (*wire.Message, error) {
			return nil, fmt.Errorf("%w: %s", ErrUnknownService, req.Topic)
		},
	})
	return n, nil
}

// Registry returns the node's registry view (health-watched when a monitor
// is configured).
func (n *Node) Registry() discovery.Resolver { return n.registry }

// Health returns the node's liveness monitor (nil when disabled).
func (n *Node) Health() *health.Monitor { return n.health }

// SetLaneQuota re-reserves one lane's admission quota on the node's server
// at runtime (see endpoint.Server.SetLaneQuota). False without lane-aware
// admission. This is the seam telemetry-driven quota adapters retune
// through.
func (n *Node) SetLaneQuota(lane endpoint.Lane, quota int) bool {
	return n.ep.SetLaneQuota(lane, quota)
}

// HandleTopic registers a raw endpoint handler on the node's listener for a
// topic outside the hosted-service namespace — no discovery registration, no
// QoS. This is how in-band control planes (the telemetry aggregator) ride a
// node's existing listener instead of opening a protocol of their own.
func (n *Node) HandleTopic(topic string, h endpoint.Handler) { n.ep.Handle(topic, h) }

// Close withdraws all services, closes all bindings and stops the node.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	services := make([]string, 0, len(n.suppliers))
	for name := range n.suppliers {
		services = append(services, name)
	}
	bindings := append([]*Binding(nil), n.bindings...)
	n.mu.Unlock()

	for _, svc := range services {
		_ = n.withdraw(svc)
	}
	for _, b := range bindings {
		_ = b.Close()
	}
	return n.ep.Close()
}

// forget drops a closed binding from the node's live bindings.
func (n *Node) forget(b *Binding) {
	n.mu.Lock()
	if i := slices.Index(n.bindings, b); i >= 0 {
		n.bindings = slices.Delete(n.bindings, i, i+1)
	}
	n.mu.Unlock()
}

// HandoffPeer moves every live binding on peer to the best other supplier
// its spec admits — §3.7's "transferred to different services matching the
// constraints" for a supplier about to leave. Each move is the binding's
// own traced rebind, so it counts in Rebinds. A binding with no feasible
// replacement stays on peer: the hand-off aborts, not the binding.
func (n *Node) HandoffPeer(peer string) (moved, aborted int) {
	n.mu.Lock()
	bindings := slices.Clone(n.bindings)
	n.mu.Unlock()
	for _, b := range bindings {
		if b.Peer() != peer {
			continue // on another supplier, or moved off peer already
		}
		switch err := b.rebindFrom(peer); {
		case err == nil:
			moved++
		case !errors.Is(err, ErrNodeClosed): // a binding closed meanwhile is neither
			aborted++
		}
	}
	return moved, aborted
}

// Serve hosts a service: the description is completed with this node as
// provider, registered with discovery, and requests to its name are
// dispatched to the handler, which owns nothing it is passed (see Handler:
// the request's payload is the node's again once the reply is sent).
func (n *Node) Serve(desc *svcdesc.Description, handler Handler) error {
	if handler == nil {
		return errors.New("core: nil handler")
	}
	d := desc.Clone()
	d.Provider = n.name
	if err := d.Validate(); err != nil {
		return err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrNodeClosed
	}
	if _, busy := n.suppliers[d.Name]; busy {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrServiceExists, d.Name)
	}
	n.suppliers[d.Name] = &supplier{desc: d, handler: handler}
	n.mu.Unlock()
	n.ep.Handle(d.Name, func(req *wire.Message) (*wire.Message, error) {
		out, err := handler(req.Payload)
		if err != nil {
			return nil, err
		}
		return endpoint.NewReply(out), nil
	})

	if err := n.registry.Register(d); err != nil {
		n.mu.Lock()
		delete(n.suppliers, d.Name)
		n.mu.Unlock()
		n.ep.Unhandle(d.Name)
		return fmt.Errorf("core: register %s: %w", d.Name, err)
	}
	return nil
}

// Withdraw stops hosting a service and unregisters it.
func (n *Node) Withdraw(service string) error { return n.withdraw(service) }

func (n *Node) withdraw(service string) error {
	n.mu.Lock()
	sup, ok := n.suppliers[service]
	delete(n.suppliers, service)
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownService, service)
	}
	n.ep.Unhandle(service)
	return n.registry.Unregister(sup.desc.Key())
}

// RenewLeases re-registers all hosted services (lease keep-alive). Call it
// periodically at a fraction of the advertised TTL.
func (n *Node) RenewLeases() error {
	n.mu.Lock()
	descs := make([]*svcdesc.Description, 0, len(n.suppliers))
	for _, sup := range n.suppliers {
		descs = append(descs, sup.desc)
	}
	n.mu.Unlock()
	var firstErr error
	for _, d := range descs {
		if err := n.registry.Register(d); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
