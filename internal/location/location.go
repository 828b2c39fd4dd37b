// Package location implements the paper's locating feature (§3.5): a
// middleware-level location service that tracks both *physical* positions
// (coordinates, for spatial QoS and routing) and *logical* locations
// (hierarchical place names like "hospital/ward-3/bed-12"), which the paper
// points out are distinct notions that matching algorithms often conflate.
//
// For mobile nodes the service derives a velocity estimate from successive
// updates, and Entry.PredictAt extrapolates positions, supporting the
// paper's "intermittent with some prediction" transactions and handoff
// decisions ("a mobile service moving out of range", §3.7: see
// scheduler.DepartureMonitor).
package location

import (
	"sort"
	"strings"
	"sync"
	"time"

	"ndsm/internal/svcdesc"
)

// Entry is one node's location record.
type Entry struct {
	// Node is the tracked node's address.
	Node string
	// Physical is the last reported coordinate.
	Physical svcdesc.Location
	// Logical is the hierarchical place name, "/"-separated.
	Logical string
	// UpdatedAt is when Physical was last reported.
	UpdatedAt time.Time
	// VX and VY estimate velocity in meters/second, derived from the last
	// two updates.
	VX float64
	VY float64
}

// PredictAt linearly extrapolates the node's position to time at.
func (e Entry) PredictAt(at time.Time) svcdesc.Location {
	dt := at.Sub(e.UpdatedAt).Seconds()
	if dt <= 0 {
		return e.Physical
	}
	return svcdesc.Location{X: e.Physical.X + e.VX*dt, Y: e.Physical.Y + e.VY*dt}
}

// Service is the location registry. All methods are safe for concurrent use.
type Service struct {
	mu      sync.Mutex
	entries map[string]Entry
}

// NewService returns an empty location service.
func NewService() *Service {
	return &Service{entries: make(map[string]Entry)}
}

// Update records a node's position (and optionally its logical place; an
// empty logical keeps the previous value). Velocity is re-estimated from the
// previous update.
func (s *Service) Update(node string, pos svcdesc.Location, logical string, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, ok := s.entries[node]
	e := Entry{Node: node, Physical: pos, Logical: logical, UpdatedAt: now}
	if logical == "" && ok {
		e.Logical = prev.Logical
	}
	if ok {
		dt := now.Sub(prev.UpdatedAt).Seconds()
		if dt > 0 {
			e.VX = (pos.X - prev.Physical.X) / dt
			e.VY = (pos.Y - prev.Physical.Y) / dt
		} else {
			e.VX, e.VY = prev.VX, prev.VY
		}
	}
	s.entries[node] = e
}

// Remove forgets a node.
func (s *Service) Remove(node string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, node)
}

// All returns every entry, sorted by node name.
func (s *Service) All() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// NearestK returns up to k tracked nodes closest to pos, nearest first.
func (s *Service) NearestK(pos svcdesc.Location, k int) []Entry {
	all := s.All()
	sort.SliceStable(all, func(i, j int) bool {
		return all[i].Physical.Distance(pos) < all[j].Physical.Distance(pos)
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// Within returns all tracked nodes within radius of pos, nearest first.
func (s *Service) Within(pos svcdesc.Location, radius float64) []Entry {
	near := s.NearestK(pos, len(s.All()))
	out := near[:0]
	for _, e := range near {
		if e.Physical.Distance(pos) <= radius {
			out = append(out, e)
		}
	}
	return out
}

// InLogicalArea returns the nodes whose logical location is the given place
// or any descendant of it ("hospital/ward-3" matches
// "hospital/ward-3/bed-12"), sorted by node.
func (s *Service) InLogicalArea(area string) []Entry {
	area = strings.TrimSuffix(area, "/")
	var out []Entry
	for _, e := range s.All() {
		if e.Logical == area || strings.HasPrefix(e.Logical, area+"/") {
			out = append(out, e)
		}
	}
	return out
}
