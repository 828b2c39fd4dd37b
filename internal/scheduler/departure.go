package scheduler

import (
	"sort"
	"time"

	"ndsm/internal/core"
	"ndsm/internal/location"
	"ndsm/internal/svcdesc"
)

// DepartureMonitor closes the loop between the location service (§3.5) and
// the node's hand-off (§3.7): using each mobile supplier's velocity
// estimate, it predicts who will leave the service area within the lookahead
// horizon and moves the node's bindings off them *before* the link breaks —
// the paper's "if a service is about to be discontinued (e.g., a mobile
// service moving out of range), then the transactions involving it should be
// either completed, or transferred to different services matching the
// constraints". The prediction is the policy; the move is each binding's
// own rebind (core.Node.HandoffPeer).
type DepartureMonitor struct {
	locations *location.Service
	node      *core.Node
	// Center and Radius define the service area.
	Center svcdesc.Location
	Radius float64
	// Lookahead is how far ahead positions are extrapolated.
	Lookahead time.Duration
	// StaleAfter treats suppliers with no location update in this long as
	// departed (silent loss). Zero disables the staleness check.
	StaleAfter time.Duration
}

// HandoffReport is one departing peer's hand-off: how many of the node's
// bindings moved to another supplier and how many found none and stayed.
type HandoffReport struct {
	Peer    string
	Moved   int
	Aborted int
}

// NewDepartureMonitor wires a monitor for node's bindings; callers fill the
// area fields.
func NewDepartureMonitor(locations *location.Service, node *core.Node, center svcdesc.Location, radius float64, lookahead time.Duration) *DepartureMonitor {
	return &DepartureMonitor{
		locations: locations,
		node:      node,
		Center:    center,
		Radius:    radius,
		Lookahead: lookahead,
	}
}

// PredictDepartures returns the tracked nodes predicted to be outside the
// service area at now+Lookahead (or stale), sorted by name.
func (m *DepartureMonitor) PredictDepartures(now time.Time) []string {
	horizon := now.Add(m.Lookahead)
	var out []string
	for _, e := range m.locations.All() {
		if m.StaleAfter > 0 && now.Sub(e.UpdatedAt) > m.StaleAfter {
			out = append(out, e.Node)
			continue
		}
		if e.PredictAt(horizon).Distance(m.Center) > m.Radius {
			out = append(out, e.Node)
		}
	}
	sort.Strings(out)
	return out
}

// Sweep predicts departures and hands off the node's bindings on each
// departing peer, returning one report per peer that had any.
func (m *DepartureMonitor) Sweep(now time.Time) []HandoffReport {
	var reports []HandoffReport
	for _, peer := range m.PredictDepartures(now) {
		if moved, aborted := m.node.HandoffPeer(peer); moved+aborted > 0 {
			reports = append(reports, HandoffReport{Peer: peer, Moved: moved, Aborted: aborted})
		}
	}
	return reports
}
