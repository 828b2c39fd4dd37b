package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"ndsm/internal/core"
	"ndsm/internal/discovery"
	"ndsm/internal/discovery/cluster"
	"ndsm/internal/endpoint"
	"ndsm/internal/flightrec"
	"ndsm/internal/health"
	"ndsm/internal/netmux"
	"ndsm/internal/netsim"
	"ndsm/internal/obs"
	"ndsm/internal/qos"
	"ndsm/internal/recovery"
	"ndsm/internal/reqlog"
	"ndsm/internal/simtime"
	"ndsm/internal/slo"
	"ndsm/internal/svcdesc"
	"ndsm/internal/telemetry"
	"ndsm/internal/trace"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// WorldConfig picks the kind of chaos world to build. Every size is a
// constant below; each field here turns one plane on or off.
type WorldConfig struct {
	// Seed fixes the substrate's loss/jitter RNG (and a scenario's fault
	// schedule).
	Seed int64
	// NoLiveness turns the health layer off. On, supplier leases shrink to a
	// few ticks and are renewed every tick (heartbeats piggybacked on the
	// discovery traffic that already flows), and the consumer runs a failure
	// detector + per-peer circuit breaker on the schedule clock, so killed
	// suppliers are suspected, skipped, and fast-failed instead of
	// re-selected. Off, the world behaves exactly like the detector-less
	// stack (hour-long leases, reactive rebinds only) — the baseline E11
	// measures against.
	NoLiveness bool
	// Cluster replaces the single registry node with a replicated sharded
	// cluster of ClusterSize members ("registry0" .. "registry2"): every
	// endpoint resolves through a scatter-gather cluster resolver instead of
	// one central client, the consumer additionally runs a lookup lease
	// cache sized in ticks (TTL one tick, stale window four), and the world
	// drives one anti-entropy round per member per tick.
	Cluster bool
	// Overload turns on the priority-lane overload workload: every supplier
	// runs lane-aware admission control (a small MaxInFlight pool with one
	// slot reserved for the control lane), serves a slow bulk topic, and each
	// tick the consumer floods the bound supplier with a burst of bulk-lane
	// requests alongside exactly one control-lane probe. The per-tick
	// control/bulk outcomes are the trace the priority-isolation invariant
	// judges: bulk may shed freely, but no control probe may shed on a tick
	// where bulk traffic was admitted.
	Overload bool
	// SLO turns on the cluster telemetry plane and the alerting plane over
	// it. Telemetry: the consumer node hosts an aggregator on its existing
	// listener, every live supplier publishes one in-band report per tick
	// (schedule-clock timestamps), and the world records each supplier's
	// end-of-tick freshness verdict — the trace the telemetry-freshness
	// invariant checks around partitions. Alerting: the consumer runs a
	// burn-rate engine over the aggregator, self-ingesting one report per
	// tick with its own workload counters (control-probe outcomes, lookup
	// outcomes, bulk admit/shed totals) so ratio objectives have series to
	// judge. Objectives installed: telemetry-freshness over every reporting
	// node, control-deadline-miss in overload worlds, and lookup-availability
	// in cluster worlds. The engine evaluates once per tick; the per-tick
	// severity snapshot is what the alert-latency invariant checks, and every
	// transition to critical cuts a flight-recorder bundle.
	SLO bool
	// Tracer, when set and NewWorld is given no span collector, is the
	// tracer every component of the world records into, the collector its
	// SLO flight bundles read (ndsm-bench -trace).
	Tracer *trace.Tracer
}

// World sizes. Every world and scenario runs these.
const (
	// TickEvery is the virtual time one workload tick represents; fault
	// schedule offsets are mapped to tick indices through it. It is the
	// liveness layer's renewal cadence, which sizes its thresholds.
	TickEvery = health.Renewal
	// ClusterSize is a cluster world's member count.
	ClusterSize = 3
	// replicationFactor is a cluster world's owner-set size R.
	replicationFactor = cluster.DefaultReplicationFactor
	// suppliers is how many supplier nodes serve the service.
	suppliers = 3
	// service is the service name suppliers offer.
	service = "svc/chaos"
	// requestTimeout is the consumer's real-time benefit deadline per
	// request.
	requestTimeout = 120 * time.Millisecond
	// collectWindow is the flood discovery reply-collection window (real
	// time).
	collectWindow = 25 * time.Millisecond
)

// RegistryID is the centralized registry's node ID in a World.
const RegistryID = "registry"

// ConsumerID is the consumer's node ID in a World.
const ConsumerID = "consumer"

// clientTimeout bounds each centralized-registry exchange so that lost reply
// datagrams fail the call instead of hanging it (real time).
const clientTimeout = 150 * time.Millisecond

// keySetState is the suppliers' recoverable state machine: the set of
// operation keys applied. Its whole point is comparability — after a WAL
// crash-replay cycle the recovered set must still contain every key the
// consumer holds an ack for.
type keySetState struct {
	mu   sync.Mutex
	keys map[string]bool
}

func newKeySetState() *keySetState { return &keySetState{keys: make(map[string]bool)} }

// Apply implements recovery.StateMachine.
func (s *keySetState) Apply(data []byte) error {
	s.mu.Lock()
	s.keys[string(data)] = true
	s.mu.Unlock()
	return nil
}

// Snapshot implements recovery.StateMachine.
func (s *keySetState) Snapshot() ([]byte, error) {
	s.mu.Lock()
	keys := make([]string, 0, len(s.keys))
	for k := range s.keys {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return json.Marshal(keys)
}

// Restore implements recovery.StateMachine.
func (s *keySetState) Restore(snapshot []byte) error {
	var keys []string
	if err := json.Unmarshal(snapshot, &keys); err != nil {
		return err
	}
	s.mu.Lock()
	s.keys = make(map[string]bool, len(keys))
	for _, k := range keys {
		s.keys[k] = true
	}
	s.mu.Unlock()
	return nil
}

// Has reports whether a key was applied.
func (s *keySetState) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keys[key]
}

// worldNode is one full middleware endpoint: radio mux, sim transport,
// flood agent + central client composed adaptively, and the core node.
type worldNode struct {
	mux      *netmux.Mux
	tr       *transport.Sim
	adaptive *discovery.Adaptive
	node     *core.Node
}

// World is the standard chaos scenario: one consumer, one centralized
// registry, and N suppliers of the same service with distinct advertised
// reliabilities (so QoS selection is never a tie), all within radio range on
// a netsim field. Every endpoint runs the real stack — netmux under a sim
// transport, adaptive discovery over a central client plus a flood agent —
// so injected faults exercise the same code paths the experiments measure.
type World struct {
	cfg WorldConfig
	dir string // the suppliers' WAL root, a temp dir removed on Close
	// clock is the schedule clock; tracer and spans are nil unless the world
	// was built with a span collector.
	clock  simtime.Clock
	tracer *trace.Tracer
	spans  *trace.Collector

	Net *netsim.Network

	registryMux    *netmux.Mux
	registryTr     *transport.Sim
	registryServer *discovery.Server

	// Cluster-mode registry plane (empty unless WorldConfig.Cluster).
	clusterMembers []string
	clusterNodes   []*cluster.Node
	clusterMuxes   []*netmux.Mux
	clusterTrs     []*transport.Sim
	clusterProbe   discovery.Resolver // consumer's cached cluster view

	nodes    map[string]*worldNode // consumer + suppliers
	binding  *core.Binding
	probe    discovery.Resolver // the consumer's registry view, for lookup probes
	supplier []string           // supplier IDs in creation order
	health   *health.Monitor    // consumer's liveness monitor (nil with NoLiveness)

	// Telemetry plane (nil/empty unless WorldConfig.SLO).
	agg        *telemetry.Aggregator
	publishers map[string]*telemetry.Publisher
	pubCallers map[string]*endpoint.Caller

	// Overload plane (nil/empty unless WorldConfig.Overload): per-supplier
	// bulk and control callers owned by the consumer, plus each supplier's
	// wide-event recorder — the server-side request log the tail-capture
	// invariant audits against the consumer's observed sheds.
	overBulk map[string]*endpoint.Caller
	overCtl  map[string]*endpoint.Caller
	reqlogs  map[string]*reqlog.Recorder
	// bulkGate is a bulk transfer's work: overloadStep holds it closed from
	// before a tick's burst until the control probe returns, and each bulk
	// handler keeps its admission slot until then. A late call passes, and
	// Close always finds it open, since Tick runs overloadStep to the end.
	bulkGate sync.RWMutex

	// SLO plane (nil unless WorldConfig.SLO).
	sloEngine *slo.Engine
	flight    *flightrec.Recorder
	sloSeq    uint64

	mu            sync.Mutex
	managers      map[string]*recovery.Manager
	states        map[string]*keySetState
	dead          map[string]bool // suppliers currently crash-killed
	deadRegistry  map[string]bool // cluster members currently crash-killed
	ticks         []TickRecord
	deadAttempts  int64
	acked         []string
	ackedBy       map[string][]string
	walViolations []string
	alertTrans    []slo.Transition // every alert transition over the run (SLO worlds)
}

// TickRecord is what one Tick observed. Its maps are keyed by supplier ID
// and nil when the world lacks the plane that fills them.
type TickRecord struct {
	// OK is the consumer's request outcome.
	OK bool
	// LookupOK is the discovery probe through the consumer's full registry
	// view, flood fallback included.
	LookupOK bool
	// ClusterOK is the cached cluster-resolver probe, without flood fallback
	// (cluster worlds).
	ClusterOK bool
	// Attempted and Bound are the peers the binding pointed at entering and
	// leaving the tick, before and after any rebinds the tick triggered.
	Attempted, Bound string
	// Suspected and Open are the detector's verdict and the breaker-open
	// flag at the end of the tick (liveness worlds).
	Suspected, Open map[string]bool
	// Fresh is the aggregator's end-of-tick freshness verdict (telemetry
	// worlds).
	Fresh map[string]bool
	// CtlIssued, CtlOK and CtlShed are the control probe's outcome: sent,
	// completed, shed by the supplier's admission control; BulkAdmitted and
	// BulkShed count the bulk burst's requests served and shed (overload
	// worlds; see overloadStep).
	CtlIssued, CtlOK, CtlShed bool
	BulkAdmitted, BulkShed    int
	// Alerts is the end-of-tick severity of every alert instance, keyed
	// "<objective>/<node>" (SLO worlds).
	Alerts map[string]slo.Severity
}

// muxDatagram presents one netmux protocol channel as the sim transport's
// DatagramService, so the transport and the flood discovery agent share the
// node's single radio.
type muxDatagram struct{ mux *netmux.Mux }

func (m muxDatagram) Send(from, to netsim.NodeID, data []byte) error {
	return m.mux.Network().Send(from, to, data)
}

func (m muxDatagram) Recv(id netsim.NodeID) (<-chan netsim.Packet, error) {
	if id != m.mux.ID() {
		return nil, fmt.Errorf("chaos: mux for %s asked to receive for %s", m.mux.ID(), id)
	}
	return m.mux.Channel(transport.ProtoSim), nil
}

// NewWorld builds and starts a world of the given kind. The clock is the
// schedule clock (a *simtime.Virtual in scenarios; nil means wall time). It
// times the adaptive registry's health probes; the data path runs on wall
// time so request timeouts fire while the driving goroutine is blocked inside
// a tick. A non-nil spans collector turns tracing on: one tracer, on the
// schedule clock, is shared by every component in the world — radio hops,
// discovery (central and flood), bindings, nodes, the health layer — so one
// consumer request yields a single connected causal tree across all
// simulated nodes, and SLO worlds feed recent spans into their flight
// bundles. Without a collector, WorldConfig.Tracer plays that part.
func NewWorld(cfg WorldConfig, clock simtime.Clock, spans *trace.Collector) (*World, error) {
	clock = simtime.OrReal(clock)
	w := &World{
		cfg:          cfg,
		clock:        clock,
		spans:        spans,
		nodes:        make(map[string]*worldNode),
		managers:     make(map[string]*recovery.Manager),
		states:       make(map[string]*keySetState),
		dead:         make(map[string]bool),
		deadRegistry: make(map[string]bool),
		ackedBy:      make(map[string][]string),
		reqlogs:      make(map[string]*reqlog.Recorder),
	}
	if spans != nil {
		w.tracer = trace.New(trace.Options{Name: fmt.Sprintf("seed-%d", cfg.Seed), Clock: clock, Collector: spans})
	} else if cfg.Tracer != nil {
		w.tracer, w.spans = cfg.Tracer, cfg.Tracer.Collector()
	}
	dir, err := os.MkdirTemp("", "ndsm-chaos-*")
	if err != nil {
		return nil, fmt.Errorf("chaos: temp dir: %w", err)
	}
	w.dir = dir
	if err := w.build(); err != nil {
		_ = w.Close()
		return nil, err
	}
	return w, nil
}

func (w *World) build() error {
	cfg := w.cfg
	// The radio runs on wall time (latency spikes are real delays) while the
	// fault schedule runs on w.clock; energy is unlimited so the only
	// deaths are the injected ones.
	w.Net = netsim.New(netsim.Config{
		Range:     500,
		InboxSize: 1024,
		Unlimited: true,
		Seed:      cfg.Seed,
		Tracer:    w.tracer,
	})

	if cfg.Cluster {
		// Replicated sharded registry: N members, each a full cluster node
		// (shard table + gossip) on its own radio. Anti-entropy is driven
		// synchronously by the world — one SyncNow per live member per tick —
		// so gossip progress is deterministic against the fault schedule.
		for i := 0; i < ClusterSize; i++ {
			w.clusterMembers = append(w.clusterMembers, fmt.Sprintf("registry%d", i))
		}
		for i, id := range w.clusterMembers {
			if err := w.Net.AddNode(netsim.NodeID(id), netsim.Position{X: float64(-10 * (i + 1)), Y: 10}); err != nil {
				return err
			}
			mux, err := netmux.New(w.Net, netsim.NodeID(id))
			if err != nil {
				return err
			}
			w.clusterMuxes = append(w.clusterMuxes, mux)
			tr, err := transport.NewSim(muxDatagram{mux}, netsim.NodeID(id), nil)
			if err != nil {
				return err
			}
			w.clusterTrs = append(w.clusterTrs, tr)
			l, err := tr.Listen(id)
			if err != nil {
				return err
			}
			node, err := cluster.NewNode(tr, l, cluster.NodeOptions{
				Self:              id,
				Members:           w.clusterMembers,
				ReplicationFactor: replicationFactor,
				// Lease clocks run on the schedule clock, like the classic
				// store; gossip exchanges are data-path traffic and time out
				// in wall time like every registry call.
				Clock:         w.clock,
				DefaultTTL:    time.Hour,
				GossipTimeout: clientTimeout,
				Metrics:       w.Net.Metrics(netsim.NodeID(id)),
				Tracer:        w.tracer,
			})
			if err != nil {
				return err
			}
			w.clusterNodes = append(w.clusterNodes, node)
		}
	} else {
		// Registry node: mux -> sim transport -> store server.
		if err := w.Net.AddNode(RegistryID, netsim.Position{X: 0, Y: 10}); err != nil {
			return err
		}
		mux, err := netmux.New(w.Net, RegistryID)
		if err != nil {
			return err
		}
		w.registryMux = mux
		tr, err := transport.NewSim(muxDatagram{mux}, RegistryID, nil)
		if err != nil {
			return err
		}
		w.registryTr = tr
		l, err := tr.Listen(RegistryID)
		if err != nil {
			return err
		}
		// The store runs on the schedule clock so short liveness leases expire in
		// virtual time, in lockstep with the fault schedule. The hour default
		// keeps detector-less worlds lease-stable, exactly as before.
		w.registryServer = discovery.NewResolverServer(discovery.NewStore(w.clock, time.Hour), l, discovery.ServerOptions{Tracer: w.tracer})
	}

	// The liveness layer is the consumer's: heartbeats arrive through its
	// lookup results (lease renewals the suppliers push every tick), timed on
	// the schedule clock. The health package's thresholds are sized in these
	// ticks (health.Renewal is TickEvery): a killed supplier's lease (2.5 ticks) outlives at most two
	// renewal gaps, so its last observed heartbeat is at most ~1.5 ticks
	// after the kill, and the fixed-timeout fallback (3.5 ticks) turns the
	// ensuing silence into suspicion by roughly five ticks — inside the
	// suspect-before-violate bound with margin.
	leaseTTL := time.Hour
	if !cfg.NoLiveness {
		leaseTTL = 5 * TickEvery / 2
		w.health = health.NewMonitor(health.Options{Clock: w.clock, Tracer: w.tracer})
	}

	// Consumer and suppliers all run the full adaptive stack.
	mkEndpoint := func(id string, x float64, h *health.Monitor) (*worldNode, error) {
		if err := w.Net.AddNode(netsim.NodeID(id), netsim.Position{X: x, Y: 0}); err != nil {
			return nil, err
		}
		mux, err := netmux.New(w.Net, netsim.NodeID(id))
		if err != nil {
			return nil, err
		}
		tr, err := transport.NewSim(muxDatagram{mux}, netsim.NodeID(id), nil)
		if err != nil {
			mux.Close()
			return nil, err
		}
		agent := discovery.NewAgent(mux, discovery.AgentConfig{
			QueryTTL:      2,
			CollectWindow: collectWindow,
			MaxResults:    suppliers,
			Tracer:        w.tracer,
		})
		var central discovery.Resolver
		if len(w.clusterMembers) > 0 {
			cres, err := cluster.NewResolver(tr, cluster.ResolverOptions{
				Members:           w.clusterMembers,
				ReplicationFactor: replicationFactor,
				Metrics:           w.Net.Metrics(netsim.NodeID(id)),
				Tracer:            w.tracer,
			})
			if err != nil {
				mux.Close()
				return nil, err
			}
			cres.SetCallTimeout(clientTimeout)
			// The lease cache sits on the consumer's lookup path: one tick
			// of freshness, four of stale-serve-while-revalidate. Suspicion
			// invalidations (forwarded down the watched -> adaptive ->
			// cached stack) keep a suspected corpse from riding out the
			// stale window.
			cached := discovery.NewCached(cres, discovery.CacheOptions{
				Clock:    w.clock,
				TTL:      TickEvery,
				StaleFor: 4 * TickEvery,
			})
			if id == ConsumerID {
				w.clusterProbe = cached
			}
			central = cached
		} else {
			client := discovery.NewInstrumentedClient(tr, RegistryID, w.Net.Metrics(netsim.NodeID(id)), w.tracer)
			client.SetCallTimeout(clientTimeout)
			central = client
		}
		adaptive := discovery.NewAdaptive(central, agent,
			func() int { return w.Net.Density(netsim.NodeID(id)) },
			discovery.DensityPolicy(1), w.clock)
		// The node counts into its radio node's registry, beside its mux,
		// flood agent and discovery client.
		nodeCfg := core.Config{Name: id, Transport: tr, Registry: adaptive, Health: h, Metrics: w.Net.Metrics(netsim.NodeID(id)), Tracer: w.tracer}
		if cfg.Overload && id != ConsumerID {
			// Lane-aware admission on every supplier: a tiny pool, one slot
			// reserved for the control lane, a short benefit-aware queue. The
			// per-tick bulk burst is sized to drown the shared slots, so
			// isolation — not raw capacity — is what keeps control probes on
			// time. Expiry/benefit decisions run on the node's clock, wall
			// time, like the data path the deadlines belong to.
			nodeCfg.MaxInFlight = overloadMaxInFlight
			nodeCfg.Lanes = &endpoint.LaneConfig{
				Quota:      map[endpoint.Lane]int{endpoint.LaneControl: 1},
				QueueDepth: overloadQueueDepth,
			}
			// Every overloaded supplier keeps a wide-event recorder sized so
			// the tail ring outlives the run: at most
			// ticks*(overloadBulkBurst+1) sheds can ever occur, far under the
			// ring's 3/4 share of the capacity, so "shed but evicted" cannot
			// fake a tail-capture violation. Healthy traffic (workload writes,
			// telemetry publishes) is sampled hard — exemplars are the point.
			rl := reqlog.New(reqlog.Options{
				Capacity:    8192,
				SampleEvery: 256,
				Registry:    obs.NewRegistry(),
			})
			nodeCfg.ReqLog = rl
			w.reqlogs[id] = rl
		}
		node, err := core.NewNode(nodeCfg)
		if err != nil {
			_ = adaptive.Close()
			_ = tr.Close()
			mux.Close()
			return nil, err
		}
		wn := &worldNode{mux: mux, tr: tr, adaptive: adaptive, node: node}
		w.nodes[id] = wn
		return wn, nil
	}

	for i := 0; i < suppliers; i++ {
		id := fmt.Sprintf("s%d", i)
		wn, err := mkEndpoint(id, float64(10+5*i), nil)
		if err != nil {
			return err
		}
		state := newKeySetState()
		mgr, err := recovery.NewManager(filepath.Join(w.dir, id), state, recovery.WALOptions{})
		if err != nil {
			return err
		}
		w.managers[id] = mgr
		w.states[id] = state
		w.supplier = append(w.supplier, id)

		sid := id
		desc := &svcdesc.Description{
			Name: service,
			// Distinct reliabilities keep QoS selection tie-free, which keeps
			// rebind decisions — and therefore invariant verdicts —
			// deterministic across runs.
			Reliability: 0.90 - 0.02*float64(i),
			PowerLevel:  1,
			TTL:         leaseTTL,
		}
		handler := func(payload []byte) ([]byte, error) {
			m := w.manager(sid)
			if m == nil {
				return nil, errors.New("chaos: supplier storage offline")
			}
			if _, err := m.Log(string(payload), payload); err != nil {
				return nil, err
			}
			// The ack names the supplier so the consumer can attribute it.
			return []byte(sid), nil
		}
		if err := wn.node.Serve(desc, handler); err != nil {
			return err
		}
		if cfg.Overload {
			// The bulk topic simulates a slow background transfer: each call
			// parks an admission slot while the tick's bulk gate is closed,
			// so a burst of them saturates the shared pool. The control topic
			// answers immediately — a control probe only misses if admission
			// sheds or the network eats it.
			wn.node.HandleTopic(BulkTopic, func(req *wire.Message) (*wire.Message, error) {
				w.bulkGate.RLock()
				defer w.bulkGate.RUnlock()
				return &wire.Message{Kind: wire.KindReply, Payload: []byte(sid)}, nil
			})
			wn.node.HandleTopic(CtlTopic, func(req *wire.Message) (*wire.Message, error) {
				return &wire.Message{Kind: wire.KindReply, Payload: []byte(sid)}, nil
			})
		}
	}

	consumer, err := mkEndpoint(ConsumerID, 5, w.health)
	if err != nil {
		return err
	}
	// Probe through the node's registry view: with liveness on it is the
	// health-watched adaptive, so every per-tick probe doubles as the
	// detector's heartbeat source.
	w.probe = consumer.node.Registry()
	spec := &qos.Spec{
		Query: svcdesc.Query{Name: service},
		Benefit: qos.Benefit{
			FullUntil: requestTimeout / 2,
			ZeroAfter: requestTimeout,
		},
	}
	binding, err := consumer.node.Bind(spec, core.BindOptions{})
	if err != nil {
		return fmt.Errorf("chaos: bind: %w", err)
	}
	w.binding = binding

	if cfg.SLO {
		if err := w.buildTelemetry(consumer); err != nil {
			return err
		}
		if err := w.buildSLO(); err != nil {
			return err
		}
	}
	if cfg.Overload {
		// Per-supplier caller pairs, classified once at construction the way
		// a real control plane and a real bulk pipeline would be: every call
		// through them carries the lane in-band.
		w.overBulk = make(map[string]*endpoint.Caller, len(w.supplier))
		w.overCtl = make(map[string]*endpoint.Caller, len(w.supplier))
		for _, id := range w.supplier {
			bc, err := endpoint.NewCaller(consumer.tr, id, endpoint.CallerOptions{
				Redial: true, Lane: endpoint.LaneBulk,
			})
			if err != nil {
				return fmt.Errorf("chaos: overload bulk caller %s: %w", id, err)
			}
			w.overBulk[id] = bc
			cc, err := endpoint.NewCaller(consumer.tr, id, endpoint.CallerOptions{
				Redial: true, Lane: endpoint.LaneControl,
			})
			if err != nil {
				return fmt.Errorf("chaos: overload control caller %s: %w", id, err)
			}
			w.overCtl[id] = cc
		}
	}
	return nil
}

// Overload workload sizing: the per-tick bulk burst (overloadBulkBurst)
// must exceed the shared admission slots plus the bulk queue
// (overloadMaxInFlight - 1 reserved + overloadQueueDepth) so every tick
// genuinely sheds bulk, and World.bulkGate keeps the burst in the pool
// until the control probe that lands among it is answered.
const (
	// BulkTopic is the overload world's slow background-transfer topic.
	BulkTopic = "chaos/bulk"
	// CtlTopic is the overload world's fast control-probe topic.
	CtlTopic = "chaos/ctl"

	overloadMaxInFlight = 4
	overloadQueueDepth  = 2
	overloadBulkBurst   = 10
	overloadTimeout     = 100 * time.Millisecond
)

// publishTimeout bounds each in-band telemetry send (real time, like the
// rest of the data path): a partitioned supplier's report burns at most this
// long before the tick moves on.
const publishTimeout = 100 * time.Millisecond

// buildTelemetry hosts the aggregator on the consumer's existing listener
// and gives every supplier an in-band publisher: reports are requests on
// telemetry.Topic over the same sim transport the workload uses. Staleness
// is sized in ticks (2.5×TickEvery ≈ two missed publishes), on the schedule
// clock, so freshness verdicts are deterministic in virtual time.
func (w *World) buildTelemetry(consumer *worldNode) error {
	w.agg = telemetry.NewAggregator(telemetry.AggregatorOptions{
		Clock:      w.clock,
		StaleAfter: 5 * TickEvery / 2,
	})
	consumer.node.HandleTopic(telemetry.Topic, w.agg.Handler())
	w.publishers = make(map[string]*telemetry.Publisher, len(w.supplier))
	w.pubCallers = make(map[string]*endpoint.Caller, len(w.supplier))
	for _, id := range w.supplier {
		wn := w.nodes[id]
		caller, err := endpoint.NewCaller(wn.tr, ConsumerID, endpoint.CallerOptions{Redial: true})
		if err != nil {
			return fmt.Errorf("chaos: telemetry caller %s: %w", id, err)
		}
		w.pubCallers[id] = caller
		pub, err := telemetry.NewPublisher(telemetry.PublisherOptions{
			Node: id,
			// Each supplier reports its own (empty, isolated) registry:
			// the plane's freshness signal is what the chaos invariant
			// exercises, and tiny reports keep partition timeouts cheap.
			Registry: obs.NewRegistry(),
			Clock:    w.clock,
			Send:     telemetry.CallerSend(caller, id, ConsumerID, publishTimeout),
		})
		if err != nil {
			return fmt.Errorf("chaos: telemetry publisher %s: %w", id, err)
		}
		w.publishers[id] = pub
	}
	return nil
}

// manager returns the supplier's current recovery manager.
func (w *World) manager(id string) *recovery.Manager {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.managers[id]
}

// SupplierIDs lists the supplier node IDs.
func (w *World) SupplierIDs() []string { return append([]string(nil), w.supplier...) }

// Binding exposes the consumer's binding (rebind counters etc.).
func (w *World) Binding() *core.Binding { return w.binding }

// tickOf maps a schedule offset to the index of the first tick that runs
// with the action applied (the driver advances the clock and steps the
// engine before each tick).
func tickOf(at time.Duration) int {
	if at <= 0 {
		return 0
	}
	n := (int64(at) + int64(TickEvery) - 1) / int64(TickEvery)
	return int(n) - 1
}

// Tick runs one synchronous workload step: lease renewals from every live
// supplier (liveness worlds only — the heartbeat substrate), a consumer
// request (ack recorded on success, attributed to the answering supplier),
// and one discovery probe through the consumer's registry view.
func (w *World) Tick(i int) {
	if w.health != nil {
		w.renewLeases()
	}
	if len(w.clusterNodes) > 0 {
		w.syncCluster()
	}
	if w.agg != nil {
		w.publishTelemetry()
	}

	// The peer the binding points at entering the tick, and whether the
	// liveness layer would divert a request to it. Sampling Suspect here is
	// exact, not racy: the schedule clock only advances between ticks, so the
	// binding's own pre-request Suspect call sees the same verdict.
	rec := TickRecord{Attempted: w.binding.Peer()}
	preSuspected := w.health != nil && rec.Attempted != "" && w.health.Suspect(rec.Attempted)
	w.mu.Lock()
	preDead := w.dead[rec.Attempted]
	w.mu.Unlock()

	key := fmt.Sprintf("op-%06d", i)
	out, err := w.binding.Request([]byte(key))
	rec.OK = err == nil

	descs, lerr := w.probe.Lookup(&svcdesc.Query{Name: service})
	rec.LookupOK = lerr == nil && len(descs) > 0

	// In cluster worlds, also probe the cached cluster resolver directly
	// (no flood fallback): the trace the cluster-lookup-availability
	// invariant judges, and the load that exercises the lease cache.
	if w.clusterProbe != nil {
		cdescs, cerr := w.clusterProbe.Lookup(&svcdesc.Query{Name: service})
		rec.ClusterOK = cerr == nil && len(cdescs) > 0
	}

	// Overload workload: a bulk burst plus one control probe at the bound
	// supplier, after the tick's regular request so the two never contend.
	if w.overBulk != nil {
		w.overloadStep(w.binding.Peer(), &rec)
	}

	rec.Bound = w.binding.Peer()
	if w.health != nil {
		rec.Suspected = make(map[string]bool, len(w.supplier))
		rec.Open = make(map[string]bool, len(w.supplier))
		for _, id := range w.supplier {
			rec.Suspected[id] = w.health.Suspect(id)
			rec.Open[id] = w.health.State(id) == health.Open
		}
	}
	if w.agg != nil {
		rec.Fresh = make(map[string]bool, len(w.supplier))
		for _, id := range w.supplier {
			rec.Fresh[id] = w.agg.Fresh(id)
		}
	}
	if w.sloEngine != nil {
		rec.Alerts = w.sloStep(rec)
	}

	w.mu.Lock()
	w.ticks = append(w.ticks, rec)
	if preDead && !preSuspected {
		// The workload aimed this tick's request at a dead supplier and the
		// liveness layer (if any) had not yet diverted it: a wasted attempt.
		w.deadAttempts++
	}
	if rec.OK {
		w.acked = append(w.acked, key)
		by := string(out)
		w.ackedBy[by] = append(w.ackedBy[by], key)
	}
	w.mu.Unlock()
}

// Ticks returns one record per tick run so far, in tick order. The records
// are shared with the world, not copied: read them, do not modify them.
func (w *World) Ticks() []TickRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ticks[:len(w.ticks):len(w.ticks)]
}

// overloadStep drives one tick of the overload workload at target: a burst
// of overloadBulkBurst bulk-lane futures pipelined first, then exactly one
// control-lane probe while the burst still occupies the pool. Outcomes are
// classified client-side: a shed is the server's deliberate rejection; any
// other failure (radio loss, partition timeout, dead supplier) counts as
// neither admitted nor shed, so network faults cannot fake an isolation
// violation. Skipped (CtlIssued false, all zeros) when the binding points
// nowhere or at a crash-killed supplier — a skipped probe is not a deadline
// miss, so the control SLO only burns on genuine admission or network
// failures.
func (w *World) overloadStep(target string, rec *TickRecord) {
	if target == "" {
		return
	}
	w.mu.Lock()
	deadNow := w.dead[target]
	w.mu.Unlock()
	if deadNow {
		return
	}
	bulk, ctl := w.overBulk[target], w.overCtl[target]
	if bulk == nil || ctl == nil {
		return
	}
	rec.CtlIssued = true
	w.bulkGate.Lock()
	futs := make([]*endpoint.Future, 0, overloadBulkBurst)
	for i := 0; i < overloadBulkBurst; i++ {
		futs = append(futs, bulk.Go(&endpoint.Call{Topic: BulkTopic, Timeout: overloadTimeout}))
	}
	_, cerr := ctl.Do(&endpoint.Call{Topic: CtlTopic, Timeout: overloadTimeout})
	w.bulkGate.Unlock()
	rec.CtlOK = cerr == nil
	rec.CtlShed = endpoint.IsShed(cerr)
	for _, f := range futs {
		_, err := f.Wait()
		switch {
		case err == nil:
			rec.BulkAdmitted++
		case endpoint.IsShed(err):
			rec.BulkShed++
		}
	}
}

// ShedRecords returns every shed wide event retained across all supplier
// recorders — the server-side half of the tail-capture audit, and the body
// of the chaos-tail artifact a violating seed dumps.
func (w *World) ShedRecords() map[string][]reqlog.Record {
	out := make(map[string][]reqlog.Record)
	for id, rl := range w.reqlogs {
		if recs := rl.Snapshot(reqlog.Filter{Outcome: reqlog.OutcomeShed}); len(recs) > 0 {
			out[id] = recs
		}
	}
	return out
}

// renewLeases re-registers every live supplier's services concurrently,
// refreshing their short liveness leases. A crashed supplier's process cannot
// renew — lease expiry turns that silence into missing lookup entries, which
// the consumer's detector turns into suspicion.
func (w *World) renewLeases() {
	var wg sync.WaitGroup
	for _, id := range w.supplier {
		w.mu.Lock()
		deadNow := w.dead[id]
		w.mu.Unlock()
		if deadNow {
			continue
		}
		wn := w.nodes[id]
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = wn.node.RenewLeases()
		}()
	}
	wg.Wait()
}

// syncCluster drives one anti-entropy round per live registry member
// (round-robin peer choice inside each member). Dead members neither
// initiate nor matter as targets: a round aimed at a corpse times out, is
// counted as a gossip error, and the member moves on next tick.
func (w *World) syncCluster() {
	for i, node := range w.clusterNodes {
		w.mu.Lock()
		deadNow := w.deadRegistry[w.clusterMembers[i]]
		w.mu.Unlock()
		if deadNow {
			continue
		}
		_ = node.SyncNow()
	}
}

// SettleCluster runs full-mesh anti-entropy rounds until quiescent —
// invariant checkers call it after the engine's reverts revived every
// member, so replication verdicts judge the converged steady state, not
// gossip still in flight.
func (w *World) SettleCluster() {
	for round := 0; round < 4; round++ {
		for _, node := range w.clusterNodes {
			for _, peer := range w.clusterMembers {
				if peer != node.Self() {
					_ = node.SyncWith(peer)
				}
			}
		}
	}
}

// ClusterMembers lists the registry cluster member IDs (empty for classic
// single-registry worlds).
func (w *World) ClusterMembers() []string { return append([]string(nil), w.clusterMembers...) }

// publishTelemetry ships one report from every live supplier, concurrently
// (a partitioned supplier burns its publishTimeout without stalling the
// others). Crash-killed suppliers stay silent — their process is gone, which
// is exactly the silence staleness marking exists to surface.
func (w *World) publishTelemetry() {
	var wg sync.WaitGroup
	for _, id := range w.supplier {
		w.mu.Lock()
		deadNow := w.dead[id]
		w.mu.Unlock()
		if deadNow {
			continue
		}
		pub := w.publishers[id]
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = pub.Publish()
		}()
	}
	wg.Wait()
}

func (w *World) setDead(id string, dead bool) {
	w.mu.Lock()
	w.dead[id] = dead
	w.mu.Unlock()
}

// DeadAttempts counts ticks whose request was aimed at a crash-killed
// supplier without the liveness layer having diverted it first — the waste
// metric experiment E11 compares across detector-on and detector-off runs.
func (w *World) DeadAttempts() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.deadAttempts
}

// Acked returns every operation key the consumer holds an ack for.
func (w *World) Acked() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.acked...)
}

// Durable reports whether any supplier's state machine holds the key.
func (w *World) Durable(key string) bool {
	w.mu.Lock()
	states := make([]*keySetState, 0, len(w.states))
	for _, s := range w.states {
		states = append(states, s)
	}
	w.mu.Unlock()
	for _, s := range states {
		if s.Has(key) {
			return true
		}
	}
	return false
}

// RegisterInjectors wires every standard fault kind to this world.
func (w *World) RegisterInjectors(e *Engine) {
	e.Register(FaultLossBurst, func(target string) (func() error, error) {
		rate := 0.5
		if target != "" {
			if v, err := strconv.ParseFloat(target, 64); err == nil {
				rate = v
			}
		}
		prev := w.Net.SetLossRate(rate)
		return func() error { w.Net.SetLossRate(prev); return nil }, nil
	})
	e.Register(FaultLatencySpike, func(target string) (func() error, error) {
		lat := 30 * time.Millisecond
		if target != "" {
			if v, err := time.ParseDuration(target); err == nil {
				lat = v
			}
		}
		prevLat, prevJit := w.Net.SetLatency(lat, lat/3)
		return func() error { w.Net.SetLatency(prevLat, prevJit); return nil }, nil
	})
	e.Register(FaultPartition, func(target string) (func() error, error) {
		id := netsim.NodeID(target)
		w.Net.Isolate(id)
		return func() error { w.Net.Rejoin(id); return nil }, nil
	})
	e.Register(FaultCrashSupplier, func(target string) (func() error, error) {
		id := netsim.NodeID(target)
		if err := w.Net.Kill(id); err != nil {
			return nil, err
		}
		w.setDead(target, true)
		return func() error {
			w.setDead(target, false)
			return w.Net.Revive(id)
		}, nil
	})
	e.Register(FaultKillRegistry, func(string) (func() error, error) {
		if err := w.Net.Kill(RegistryID); err != nil {
			return nil, err
		}
		return func() error { return w.Net.Revive(RegistryID) }, nil
	})
	e.Register(FaultKillRegistryNode, func(target string) (func() error, error) {
		id := netsim.NodeID(target)
		if err := w.Net.Kill(id); err != nil {
			return nil, err
		}
		w.mu.Lock()
		w.deadRegistry[target] = true
		w.mu.Unlock()
		return func() error {
			w.mu.Lock()
			w.deadRegistry[target] = false
			w.mu.Unlock()
			return w.Net.Revive(id)
		}, nil
	})
	e.Register(FaultWALCrash, func(target string) (func() error, error) {
		return nil, w.walCrash(target)
	})
}

// walCrash crash-cycles a supplier's durable storage: the manager is closed
// (simulated process death — in-memory state is discarded), reopened over
// the same directory, and recovered. Any acked operation missing from the
// recovered state is a replay-fidelity violation.
func (w *World) walCrash(id string) error {
	w.mu.Lock()
	mgr := w.managers[id]
	acked := append([]string(nil), w.ackedBy[id]...)
	w.mu.Unlock()
	if mgr == nil {
		return fmt.Errorf("chaos: wal-crash: unknown supplier %q", id)
	}
	_ = mgr.Close()

	state := newKeySetState()
	fresh, err := recovery.NewManager(filepath.Join(w.dir, id), state, recovery.WALOptions{})
	if err != nil {
		return fmt.Errorf("chaos: wal-crash reopen %s: %w", id, err)
	}
	if _, err := fresh.Recover(); err != nil {
		w.recordWALViolation(fmt.Sprintf("%s: replay failed: %v", id, err))
	}
	for _, key := range acked {
		if !state.Has(key) {
			w.recordWALViolation(fmt.Sprintf("%s: replay lost acked op %s", id, key))
		}
	}
	w.mu.Lock()
	w.managers[id] = fresh
	w.states[id] = state
	w.mu.Unlock()
	return nil
}

func (w *World) recordWALViolation(msg string) {
	w.mu.Lock()
	w.walViolations = append(w.walViolations, msg)
	w.mu.Unlock()
}

// Close tears the world down: workload, endpoints, registry, substrate,
// storage, and the WAL directory.
func (w *World) Close() error {
	for _, pub := range w.publishers {
		_ = pub.Close()
	}
	for _, callers := range []map[string]*endpoint.Caller{w.pubCallers, w.overBulk, w.overCtl} {
		for _, c := range callers {
			_ = c.Close()
		}
	}
	if w.binding != nil {
		_ = w.binding.Close()
	}
	for _, wn := range w.nodes {
		_ = wn.node.Close()
	}
	for _, wn := range w.nodes {
		_ = wn.adaptive.Close()
		_ = wn.tr.Close()
		wn.mux.Close()
	}
	if w.registryServer != nil {
		_ = w.registryServer.Close()
	}
	if w.registryTr != nil {
		_ = w.registryTr.Close()
	}
	if w.registryMux != nil {
		w.registryMux.Close()
	}
	for _, node := range w.clusterNodes {
		_ = node.Close()
	}
	for _, tr := range w.clusterTrs {
		_ = tr.Close()
	}
	for _, mux := range w.clusterMuxes {
		mux.Close()
	}
	if w.Net != nil {
		w.Net.Close()
	}
	w.mu.Lock()
	managers := make([]*recovery.Manager, 0, len(w.managers))
	for _, m := range w.managers {
		managers = append(managers, m)
	}
	w.mu.Unlock()
	for _, m := range managers {
		_ = m.Close()
	}
	_ = os.RemoveAll(w.dir)
	return nil
}
