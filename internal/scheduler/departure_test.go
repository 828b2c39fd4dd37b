package scheduler

import (
	"testing"
	"time"

	"ndsm/internal/location"
	"ndsm/internal/svcdesc"
)

func TestPredictDepartures(t *testing.T) {
	ls := location.NewService()
	center := svcdesc.Location{X: 0, Y: 0}
	// "leaver" moves outward at 10 m/s; "stayer" is parked near the center.
	ls.Update("leaver", svcdesc.Location{X: 0, Y: 0}, "", epoch)
	ls.Update("leaver", svcdesc.Location{X: 10, Y: 0}, "", epoch.Add(time.Second))
	ls.Update("stayer", svcdesc.Location{X: 2, Y: 2}, "", epoch.Add(time.Second))

	m := NewDepartureMonitor(ls, nil, center, 50, 10*time.Second)
	got := m.PredictDepartures(epoch.Add(time.Second))
	// leaver's predicted position at +10s: x=110 > radius 50.
	if len(got) != 1 || got[0] != "leaver" {
		t.Fatalf("departures = %v", got)
	}

	// Shrink the lookahead: nobody leaves within 2 seconds (x=30 < 50).
	m.Lookahead = 2 * time.Second
	if got := m.PredictDepartures(epoch.Add(time.Second)); len(got) != 0 {
		t.Fatalf("short-lookahead departures = %v", got)
	}
}

func TestPredictDeparturesStale(t *testing.T) {
	ls := location.NewService()
	ls.Update("silent", svcdesc.Location{X: 1, Y: 1}, "", epoch)
	m := NewDepartureMonitor(ls, nil, svcdesc.Location{}, 100, time.Second)
	m.StaleAfter = 30 * time.Second
	if got := m.PredictDepartures(epoch.Add(10 * time.Second)); len(got) != 0 {
		t.Fatalf("fresh node flagged: %v", got)
	}
	if got := m.PredictDepartures(epoch.Add(time.Minute)); len(got) != 1 || got[0] != "silent" {
		t.Fatalf("stale node not flagged: %v", got)
	}
}

func TestDepartureSweepHandsOff(t *testing.T) {
	w := newHandoffWorld(t)
	ls := location.NewService()
	m := NewDepartureMonitor(ls, w.consumer, svcdesc.Location{}, 50, 10*time.Second)

	// The mobile supplier races out of the area with one binding on it; a
	// parked backup offers the same service.
	ls.Update("mobile", svcdesc.Location{X: 0, Y: 0}, "", epoch)
	ls.Update("mobile", svcdesc.Location{X: 20, Y: 0}, "", epoch.Add(time.Second))
	ls.Update("backup", svcdesc.Location{X: 3, Y: 3}, "", epoch.Add(time.Second))
	w.serve("mobile", desc("svc", 0.9, 1))
	b := w.bind(svcdesc.Query{Name: "svc"})
	w.serve("backup", desc("svc", 0.9, 1))

	reports := m.Sweep(epoch.Add(time.Second))
	if len(reports) != 1 || reports[0] != (HandoffReport{Peer: "mobile", Moved: 1}) {
		t.Fatalf("reports = %+v", reports)
	}
	if b.Peer() != "backup" || b.Rebinds.Load() != 1 {
		t.Fatalf("after sweep: peer %s, %d rebinds", b.Peer(), b.Rebinds.Load())
	}
	w.answeredBy(b, "backup")

	// The mobile node still predicts as departing but holds no binding any
	// more, and the backup is parked inside the area: the second sweep
	// reports nothing.
	if reports := m.Sweep(epoch.Add(2 * time.Second)); len(reports) != 0 {
		t.Fatalf("second sweep reports = %+v", reports)
	}
}
