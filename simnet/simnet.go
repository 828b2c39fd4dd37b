// Package simnet is the public API of the simulated network substrate and
// the middleware-level locating & routing layer (§3.5). It stands in for the
// wireless testbeds (Bluetooth, 802.11, sensor radios) the paper assumes:
// a planar radio field with a first-order energy model, loss, latency,
// mobility, and partitions, plus multi-hop routing strategies and a
// physical/logical location service.
package simnet

import (
	"ndsm/internal/location"
	"ndsm/internal/netmux"
	"ndsm/internal/netsim"
	"ndsm/internal/routing"
)

// Radio field.
type (
	// Network is the simulated radio field.
	Network = netsim.Network
	// Config parameterizes it.
	Config = netsim.Config
	// NodeID names a node; Position places it.
	NodeID = netsim.NodeID
	// Position is a point on the field in meters.
	Position = netsim.Position
	// Packet is a delivered datagram.
	Packet = netsim.Packet
	// Waypoint is the random-waypoint mobility model.
	Waypoint = netsim.Waypoint
)

// Field constructors and helpers.
var (
	// New creates a network.
	New = netsim.New
	// TxEnergy and RxEnergy are the first-order radio energy model, with
	// the LEACH constants: joules to send n bytes d meters, and to receive
	// them.
	TxEnergy = netsim.TxEnergy
	RxEnergy = netsim.RxEnergy
	// GridField places a node population on a grid.
	GridField = netsim.GridField
	// Connected reports single-component connectivity.
	Connected = netsim.Connected
	// NewWaypoint creates a mobility model.
	NewWaypoint = netsim.NewWaypoint
)

// Protocol multiplexing (several agents sharing one radio).
type Mux = netmux.Mux

// NewMux starts a protocol demultiplexer for a node.
var NewMux = netmux.New

// Routing (§3.5).
type (
	// Router is one node's multi-hop routing agent.
	Router = routing.Router
	// Strategy is a pluggable routing algorithm.
	Strategy = routing.Strategy
	// Mesh manages one router per node.
	Mesh = routing.Mesh
	// Flooding, DistanceVector and Geographic are the strategies.
	Flooding       = routing.Flooding
	DistanceVector = routing.DistanceVector
	Geographic     = routing.Geographic
	// CostFunc prices links for the distance-vector metric.
	CostFunc = routing.CostFunc
)

// Routing constructors and metrics.
var (
	NewRouter           = routing.New
	NewRouterWithSource = routing.NewWithSource
	NewMesh             = routing.NewMesh
	NewDistanceVector   = routing.NewDistanceVector
	HopCost             = routing.HopCost
	EnergyCost          = routing.EnergyCost
)

// ErrNoRoute reports an unreachable destination.
var ErrNoRoute = routing.ErrNoRoute

// Location service (§3.5): physical and logical location, prediction.
type (
	LocationService = location.Service
	LocationEntry   = location.Entry
)

// NewLocationService creates an empty location registry.
var NewLocationService = location.NewService
