package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// GridField places nodes on a √n×√n grid with the given spacing, guaranteeing
// a connected topology when spacing <= radio range.
func GridField(net *Network, prefix string, n int, spacing float64) ([]NodeID, error) {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	ids := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		id := NodeID(fmt.Sprintf("%s%d", prefix, i))
		pos := Position{X: float64(i%side) * spacing, Y: float64(i/side) * spacing}
		if err := net.AddNode(id, pos); err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Connected reports whether all alive nodes form one radio-connected
// component.
func Connected(net *Network) bool {
	ids := net.Nodes()
	var alive []NodeID
	for _, id := range ids {
		if net.Alive(id) {
			alive = append(alive, id)
		}
	}
	if len(alive) <= 1 {
		return true
	}
	seen := map[NodeID]bool{alive[0]: true}
	frontier := []NodeID{alive[0]}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		nb, err := net.Neighbors(cur)
		if err != nil {
			continue
		}
		for _, o := range nb {
			if !seen[o] {
				seen[o] = true
				frontier = append(frontier, o)
			}
		}
	}
	for _, id := range alive {
		if !seen[id] {
			return false
		}
	}
	return true
}

// Waypoint is a random-waypoint mobility model: each node picks a random
// destination on the field and moves toward it at its speed; on arrival it
// picks a new destination. Step the model explicitly from the experiment
// loop so movement stays deterministic.
type Waypoint struct {
	net   *Network
	rng   *rand.Rand
	size  float64
	speed float64 // meters per step
	dests map[NodeID]Position
}

// NewWaypoint creates a waypoint model over the given nodes. speed is meters
// moved per Step call.
func NewWaypoint(net *Network, size, speed float64, seed int64) *Waypoint {
	return &Waypoint{
		net:   net,
		rng:   rand.New(rand.NewSource(seed)),
		size:  size,
		speed: speed,
		dests: make(map[NodeID]Position),
	}
}

// Step advances every alive node one movement increment.
func (w *Waypoint) Step() {
	ids := w.net.Nodes()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !w.net.Alive(id) {
			continue
		}
		pos, err := w.net.PositionOf(id)
		if err != nil {
			continue
		}
		dest, ok := w.dests[id]
		if !ok || pos.Distance(dest) < w.speed {
			dest = Position{X: w.rng.Float64() * w.size, Y: w.rng.Float64() * w.size}
			w.dests[id] = dest
		}
		d := pos.Distance(dest)
		if d == 0 {
			continue
		}
		frac := w.speed / d
		if frac > 1 {
			frac = 1
		}
		next := Position{X: pos.X + (dest.X-pos.X)*frac, Y: pos.Y + (dest.Y-pos.Y)*frac}
		_ = w.net.MoveNode(id, next)
	}
}
