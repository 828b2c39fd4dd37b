// Package ndsm is the public API of the Network-based Distributed Systems
// Middleware — a full implementation of the middleware feature catalog from
// Carvalho, Murphy, Heinzelman & Coelho, "Network-Based Distributed Systems
// Middleware" (MIDDLEWARE 2003).
//
// The middleware connects service suppliers and service consumers through a
// network (§3.1). A process participates by starting a Node on a Transport
// with a discovery Registry; it then hosts services with Node.Serve and
// consumes them with Node.Bind, which returns a QoS-managed Binding that
// re-matches suppliers automatically when they fail (graceful degradation,
// §3.4).
//
// The feature areas of the paper map onto this API as follows:
//
//   - Network independence (§3.2): Transport — NewMemTransport,
//     NewTCPTransport, NewSimTransport (simulated radio; see package simnet).
//   - Plug and play (§3.3): Registry organizations — NewStore (in-process),
//     NewRegistryServer/NewRegistryClient (centralized), NewFloodAgent
//     (distributed), NewClusterResolver (hybrid: replicated registry
//     members), NewAdaptive (adaptive).
//   - QoS (§3.4): Spec, Benefit, Weights, Score/Rank/Select, Tracker.
//   - Locating & routing (§3.5): package simnet (location service, multi-hop
//     strategies).
//   - Transactions (§3.6): Link (reliable delivery), schedules (Periodic,
//     Predictor, Demand), and the interaction styles in
//     internal/interact (RPC, message queues, publish-subscribe, tuple
//     spaces) surfaced through subpackages of this module.
//   - Scheduling (§3.7): SchedulerQueue, RMAdmissible, EDFAdmissible, and
//     Node.HandoffPeer, which moves a departing supplier's bindings to
//     other suppliers by their own rebind.
//   - Recovery (§3.8): WAL, RecoveryManager.
//   - Interoperability (§3.9): Transcode, Gateway, codecs (Binary/XML/JSON).
//   - MiLAN (§4): package milan.
package ndsm

import (
	"ndsm/internal/core"
	"ndsm/internal/discovery"
	"ndsm/internal/discovery/cluster"
	"ndsm/internal/interop"
	"ndsm/internal/netsim"
	"ndsm/internal/qos"
	"ndsm/internal/recovery"
	"ndsm/internal/scheduler"
	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transaction"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// --- kernel (§3.1) ---

// Node is one middleware endpoint: it hosts suppliers and opens consumer
// bindings.
type Node = core.Node

// NodeConfig assembles a Node.
type NodeConfig = core.Config

// NewNode starts a node.
func NewNode(cfg NodeConfig) (*Node, error) { return core.NewNode(cfg) }

// Handler serves one request of a hosted service. The payload it is passed is
// valid until it returns — the node reuses that memory once the reply is sent
// — and the reply may be that payload or a slice of it; copy what must outlive
// the call.
type Handler = core.Handler

// Binding is a QoS-managed attachment to the best feasible supplier.
type Binding = core.Binding

// BindOptions tunes a binding's degradation policy.
type BindOptions = core.BindOptions

// --- service descriptions and matching (§3.3) ---

// Description advertises a service; Query requests one.
type (
	Description = svcdesc.Description
	Query       = svcdesc.Query
	Constraint  = svcdesc.Constraint
	Op          = svcdesc.Op
	Location    = svcdesc.Location
)

// Constraint operators.
const (
	OpEq       = svcdesc.OpEq
	OpNe       = svcdesc.OpNe
	OpLt       = svcdesc.OpLt
	OpLe       = svcdesc.OpLe
	OpGt       = svcdesc.OpGt
	OpGe       = svcdesc.OpGe
	OpContains = svcdesc.OpContains
	OpExists   = svcdesc.OpExists
)

// HashPassword hashes a service password for Description.PasswordHash.
func HashPassword(plain string) string { return svcdesc.HashPassword(plain) }

// MarshalDescription / UnmarshalDescription expose the XML interchange form.
func MarshalDescription(d *Description) ([]byte, error) { return svcdesc.MarshalDescription(d) }

// UnmarshalDescription parses the XML interchange form.
func UnmarshalDescription(data []byte) (*Description, error) {
	return svcdesc.UnmarshalDescription(data)
}

// --- QoS (§3.4) ---

// Spec is a consumer's full QoS requirement; Benefit its time-constraint
// curve; Weights its soft preferences; Tracker measures achieved QoS.
type (
	Spec    = qos.Spec
	Benefit = qos.Benefit
	Weights = qos.Weights
	Tracker = qos.Tracker
	Ranked  = qos.Ranked
)

// Score, Rank, and Select evaluate suppliers against a Spec.
var (
	Score  = qos.Score
	Rank   = qos.Rank
	Select = qos.Select
)

// --- discovery (§3.3) ---

// Resolver is the uniform discovery API all organizations implement.
type Resolver = discovery.Resolver

// Store is the in-process leased advertisement table.
type Store = discovery.Store

// NewStore creates an in-process registry (also the server-side table of the
// centralized organization).
var NewStore = discovery.NewStore

// Centralized organization.
type (
	RegistryServer = discovery.Server
	RegistryClient = discovery.Client
)

// NewRegistryServer serves a store over a transport listener;
// NewRegistryClient talks to one.
var (
	NewRegistryServer = discovery.NewServer
	NewRegistryClient = discovery.NewClient
)

// Distributed organization (flooding agent over a simulated radio).
type (
	FloodAgent  = discovery.Agent
	AgentConfig = discovery.AgentConfig
)

// NewFloodAgent starts a distributed discovery agent on a netmux.
var NewFloodAgent = discovery.NewAgent

// Adaptive organization (the hybrid one is the registry cluster below).
type Adaptive = discovery.Adaptive

// NewAdaptive builds the adaptive organization.
var NewAdaptive = discovery.NewAdaptive

// DensityPolicy is the default adaptive mode policy.
var DensityPolicy = discovery.DensityPolicy

// Cached wraps any Resolver with a client-side lookup lease cache:
// steady-state lookups are local hits that revalidate asynchronously.
type (
	CachedResolver = discovery.Cached
	CacheOptions   = discovery.CacheOptions
)

// NewCachedResolver builds the caching layer.
var NewCachedResolver = discovery.NewCached

// Replicated sharded registry cluster (consistent-hash placement, gossip
// anti-entropy at replication factor R, quorum scatter-gather lookups).
type (
	ClusterNode            = cluster.Node
	ClusterNodeOptions     = cluster.NodeOptions
	ClusterResolver        = cluster.Resolver
	ClusterResolverOptions = cluster.ResolverOptions
)

// NewClusterNode runs one registry cluster member; NewClusterResolver is the
// client side that fans writes to replica owners and quorum-reads lookups.
var (
	NewClusterNode     = cluster.NewNode
	NewClusterResolver = cluster.NewResolver
)

// --- transports (§3.2) ---

// Transport moves messages; Conn is one stream; Listener accepts them.
type (
	Transport = transport.Transport
	Conn      = transport.Conn
	Listener  = transport.Listener
	Fabric    = transport.Fabric
)

// NewFabric creates an in-process switchboard for mem transports.
var NewFabric = transport.NewFabric

// NewMemTransport creates the in-process transport.
func NewMemTransport(f *Fabric) Transport { return transport.NewMem(f) }

// NewTCPTransport creates the wireline transport (codec nil = binary).
func NewTCPTransport(codec Codec) Transport { return transport.NewTCP(codec) }

// NewSimTransport creates the simulated-radio transport for one node.
var NewSimTransport = transport.NewSim

// --- wire & interoperability (§3.9) ---

// Message is the transport-independent envelope; Codec serializes it.
type (
	Message = wire.Message
	Codec   = wire.Codec
)

// The three codecs.
type (
	BinaryCodec = wire.Binary
	XMLCodec    = wire.XML
	JSONCodec   = wire.JSON
)

// Transcode re-encodes a message between codecs.
var Transcode = interop.Transcode

// Gateway bridges two middleware domains; Rule rewrites crossing messages.
type (
	Gateway       = interop.Gateway
	GatewayConfig = interop.GatewayConfig
	Rule          = interop.Rule
)

// NewGateway starts a domain bridge; the Rule constructors filter and map.
var (
	NewGateway      = interop.NewGateway
	TopicPrefixRule = interop.TopicPrefixRule
	HeaderRule      = interop.HeaderRule
	DropTopicRule   = interop.DropTopicRule
)

// --- transactions (§3.6) ---

// Link layers at-least-once delivery over a Conn; LinkConfig tunes it.
type (
	Link       = transaction.Link
	LinkConfig = transaction.LinkConfig
)

// NewLink wraps a connection with delivery guarantees.
var NewLink = transaction.NewLink

// Transaction schedules (the paper's classes).
type (
	Schedule  = transaction.Schedule
	Periodic  = transaction.Periodic
	Predictor = transaction.Predictor
	Demand    = transaction.Demand
	Pump      = transaction.Pump
)

// NewPump drives proactive transmissions under a schedule.
var NewPump = transaction.NewPump

// --- scheduling (§3.7) ---

// Scheduling primitives.
type (
	SchedulerQueue = scheduler.Queue
	SchedulerItem  = scheduler.Item
	RTTask         = scheduler.Task
)

// Dispatch policies.
const (
	PolicyFIFO     = scheduler.FIFO
	PolicyPriority = scheduler.PriorityOrder
	PolicyEDF      = scheduler.EDF
)

// Scheduler constructors and admission tests.
var (
	NewSchedulerQueue = scheduler.NewQueue
	RMAdmissible      = scheduler.RMAdmissible
	EDFAdmissible     = scheduler.EDFAdmissible
)

// --- recovery (§3.8) ---

// Recovery primitives.
type (
	WAL             = recovery.WAL
	WALOptions      = recovery.WALOptions
	WALRecord       = recovery.Record
	RecoveryManager = recovery.Manager
	StateMachine    = recovery.StateMachine
)

// Recovery constructors.
var (
	OpenWAL            = recovery.OpenWAL
	NewRecoveryManager = recovery.NewManager
)

// --- clocks ---

// Clock abstracts time; VirtualClock is the deterministic test clock.
type (
	Clock        = simtime.Clock
	RealClock    = simtime.Real
	VirtualClock = simtime.Virtual
)

// NewVirtualClock creates a deterministic clock for tests and simulations.
var NewVirtualClock = simtime.NewVirtual

// --- simulated network identity re-export (used across the API) ---

// NodeID names a simulated network node.
type NodeID = netsim.NodeID
