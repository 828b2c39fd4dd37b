package routing

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"

	"ndsm/internal/netsim"
)

// Flooding is the baseline strategy: every data packet is rebroadcast by
// every node exactly once (TTL-bounded). Reaches everything reachable at the
// cost of O(N) transmissions per packet.
type Flooding struct{}

var _ Strategy = Flooding{}

// Name implements Strategy.
func (Flooding) Name() string { return "flooding" }

// UsesFlooding implements Strategy.
func (Flooding) UsesFlooding() bool { return true }

// NextHop implements Strategy (unused for flooding).
func (Flooding) NextHop(*Router, netsim.NodeID) (netsim.NodeID, bool) { return "", false }

// Advertisement implements Strategy: flooding needs no control traffic.
func (Flooding) Advertisement(*Router) []byte { return nil }

// HandleAdvertisement implements Strategy.
func (Flooding) HandleAdvertisement(*Router, netsim.NodeID, []byte) {}

// CostFunc prices the link from a router to a direct neighbour. Lower is
// better.
type CostFunc func(r *Router, neighbor netsim.NodeID) float64

// HopCost counts every link as 1 — classic shortest-hop DSDV.
func HopCost(*Router, netsim.NodeID) float64 { return 1 }

// EnergyCost prices a link by the transmit energy for a reference packet
// plus a residual-energy penalty on the next hop, so routes bend around
// nearly-drained nodes. This is the metric MiLAN's network-configuration
// layer uses to extend lifetime.
func EnergyCost(refBytes int, penaltyWeight float64) CostFunc {
	return func(r *Router, neighbor netsim.NodeID) float64 {
		net := r.Network()
		myPos, err1 := net.PositionOf(r.ID())
		nbPos, err2 := net.PositionOf(neighbor)
		if err1 != nil || err2 != nil {
			return math.Inf(1)
		}
		d := myPos.Distance(nbPos)
		tx := netsim.TxEnergy(refBytes, d) * 1e6 // µJ
		residual, err := net.Energy(neighbor)
		if err != nil {
			return math.Inf(1)
		}
		return tx + penaltyWeight/(residual+1e-3)
	}
}

// dvRoute is one distance-vector table entry.
type dvRoute struct {
	nextHop netsim.NodeID
	cost    float64
	seq     uint32
}

// DistanceVector is a DSDV-style proactive strategy: each node periodically
// broadcasts its route table with per-destination sequence numbers; fresher
// sequence numbers always win, equal sequence numbers take the cheaper path.
// The metric is pluggable (HopCost, EnergyCost).
type DistanceVector struct {
	cost CostFunc

	mu     sync.Mutex
	routes map[netsim.NodeID]dvRoute
	ownSeq uint32
}

var _ Strategy = (*DistanceVector)(nil)

// NewDistanceVector creates a DV strategy with the given link cost metric.
func NewDistanceVector(cost CostFunc) *DistanceVector {
	if cost == nil {
		cost = HopCost
	}
	return &DistanceVector{cost: cost, routes: make(map[netsim.NodeID]dvRoute)}
}

// Name implements Strategy.
func (dv *DistanceVector) Name() string { return "distance-vector" }

// UsesFlooding implements Strategy.
func (dv *DistanceVector) UsesFlooding() bool { return false }

// NextHop implements Strategy. It validates that the chosen hop is still a
// live radio neighbour so stale routes fail fast instead of black-holing.
func (dv *DistanceVector) NextHop(r *Router, dest netsim.NodeID) (netsim.NodeID, bool) {
	dv.mu.Lock()
	route, ok := dv.routes[dest]
	dv.mu.Unlock()
	if !ok || math.IsInf(route.cost, 1) {
		return "", false
	}
	neighbors, err := r.Network().Neighbors(r.ID())
	if err != nil {
		return "", false
	}
	for _, nb := range neighbors {
		if nb == route.nextHop {
			return route.nextHop, true
		}
	}
	// Next hop died or moved away: drop the route; a later advertisement
	// will repair it.
	dv.mu.Lock()
	if cur, ok := dv.routes[dest]; ok && cur.nextHop == route.nextHop {
		delete(dv.routes, dest)
	}
	dv.mu.Unlock()
	return "", false
}

// Routes returns a copy of the table's destinations and costs (for tests and
// the experiment harness).
func (dv *DistanceVector) Routes() map[netsim.NodeID]float64 {
	dv.mu.Lock()
	defer dv.mu.Unlock()
	out := make(map[netsim.NodeID]float64, len(dv.routes))
	for d, r := range dv.routes {
		out[d] = r.cost
	}
	return out
}

// dvEntry is the wire form of one advertised route.
type dvEntry struct {
	dest netsim.NodeID
	cost float64
	seq  uint32
}

func encodeDV(entries []dvEntry) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, uint64(len(e.dest)))
		buf = append(buf, e.dest...)
		var c [8]byte
		binary.BigEndian.PutUint64(c[:], math.Float64bits(e.cost))
		buf = append(buf, c[:]...)
		var s [4]byte
		binary.BigEndian.PutUint32(s[:], e.seq)
		buf = append(buf, s[:]...)
	}
	return buf
}

func decodeDV(data []byte) ([]dvEntry, bool) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, false
	}
	data = data[used:]
	entries := make([]dvEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		l, used := binary.Uvarint(data)
		if used <= 0 || l > uint64(len(data)-used) {
			return nil, false
		}
		dest := netsim.NodeID(data[used : used+int(l)])
		data = data[used+int(l):]
		if len(data) < 12 {
			return nil, false
		}
		cost := math.Float64frombits(binary.BigEndian.Uint64(data[:8]))
		seq := binary.BigEndian.Uint32(data[8:12])
		data = data[12:]
		entries = append(entries, dvEntry{dest: dest, cost: cost, seq: seq})
	}
	return entries, true
}

// Advertisement implements Strategy: a full table dump plus the node's own
// entry with a freshly bumped sequence number (DSDV full-dump behaviour).
func (dv *DistanceVector) Advertisement(r *Router) []byte {
	dv.mu.Lock()
	defer dv.mu.Unlock()
	dv.ownSeq++
	entries := []dvEntry{{dest: r.ID(), cost: 0, seq: dv.ownSeq}}
	dests := make([]netsim.NodeID, 0, len(dv.routes))
	for d := range dv.routes {
		dests = append(dests, d)
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	for _, d := range dests {
		route := dv.routes[d]
		entries = append(entries, dvEntry{dest: d, cost: route.cost, seq: route.seq})
	}
	return encodeDV(entries)
}

// seqSettle is the DSDV settling window: a route learned over a longer path
// lags the short path's sequence numbers by its extra propagation rounds, so
// within this window cost — not freshness — decides. Routes more than
// seqSettle sequence numbers fresher always win (liveness); without that,
// stale information could linger and re-introduce counting-to-infinity.
const seqSettle = 2

// HandleAdvertisement implements Strategy: Bellman-Ford relaxation with
// DSDV sequence-number freshness softened by a settling window.
func (dv *DistanceVector) HandleAdvertisement(r *Router, from netsim.NodeID, payload []byte) {
	entries, ok := decodeDV(payload)
	if !ok {
		return
	}
	linkCost := dv.cost(r, from)
	if math.IsInf(linkCost, 1) {
		return
	}
	dv.mu.Lock()
	defer dv.mu.Unlock()
	for _, e := range entries {
		if e.dest == r.ID() {
			continue
		}
		newCost := e.cost + linkCost
		cur, exists := dv.routes[e.dest]
		switch {
		case !exists:
			// First route.
		case from == cur.nextHop && e.seq >= cur.seq:
			// Refresh of the route in use: track its current cost and seq.
		case e.seq > cur.seq+seqSettle:
			// Much fresher: accept for liveness regardless of cost.
		case e.seq+seqSettle >= cur.seq && newCost < cur.cost:
			// Comparably fresh and cheaper.
		default:
			continue
		}
		dv.routes[e.dest] = dvRoute{nextHop: from, cost: newCost, seq: e.seq}
	}
}

// Geographic is greedy geographic forwarding: each hop hands the packet to
// the neighbour geographically closest to the destination, failing when no
// neighbour is strictly closer than the current node (the classic local
// minimum). It needs no control traffic at all; positions come from the
// location substrate (a GPS stand-in per the simulator substitution).
type Geographic struct{}

var _ Strategy = Geographic{}

// Name implements Strategy.
func (Geographic) Name() string { return "geographic" }

// UsesFlooding implements Strategy.
func (Geographic) UsesFlooding() bool { return false }

// NextHop implements Strategy.
func (Geographic) NextHop(r *Router, dest netsim.NodeID) (netsim.NodeID, bool) {
	return GreedyNextHop(r.Network(), r.ID(), dest)
}

// GreedyNextHop is greedy geographic forwarding's one step: dest itself when
// it is a neighbour of cur, else the alive neighbour strictly closer to dest
// than cur and closest of all. False at a local minimum, or when cur or dest
// is unknown to net. Geographic routes with it, and so does MiLAN's manager,
// which forwards its samples to the sink hop by hop itself.
func GreedyNextHop(net *netsim.Network, cur, dest netsim.NodeID) (netsim.NodeID, bool) {
	destPos, err := net.PositionOf(dest)
	if err != nil {
		return "", false
	}
	curPos, err := net.PositionOf(cur)
	if err != nil {
		return "", false
	}
	neighbors, err := net.Neighbors(cur)
	if err != nil {
		return "", false
	}
	best := netsim.NodeID("")
	bestDist := curPos.Distance(destPos)
	for _, nb := range neighbors {
		if nb == dest {
			return nb, true // destination in direct range
		}
		p, err := net.PositionOf(nb)
		if err != nil {
			continue
		}
		if d := p.Distance(destPos); d < bestDist {
			best, bestDist = nb, d
		}
	}
	return best, best != ""
}

// Advertisement implements Strategy.
func (Geographic) Advertisement(*Router) []byte { return nil }

// HandleAdvertisement implements Strategy.
func (Geographic) HandleAdvertisement(*Router, netsim.NodeID, []byte) {}
