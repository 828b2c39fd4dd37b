package scheduler

import (
	"testing"
	"time"

	"ndsm/internal/location"
	"ndsm/internal/qos"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transaction"
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
	ls := location.NewService()
	table := transaction.NewTable()
	registry := NewRegistryStore()
	hm := NewHandoffManager(table, registry, nil)
	m := NewDepartureMonitor(ls, hm, svcdesc.Location{}, 50, 10*time.Second)

	// The mobile supplier races out of the area with one open transaction; a
	// parked backup offers the same service.
	ls.Update("mobile", svcdesc.Location{X: 0, Y: 0}, "", epoch)
	ls.Update("mobile", svcdesc.Location{X: 20, Y: 0}, "", epoch.Add(time.Second))
	ls.Update("backup", svcdesc.Location{X: 3, Y: 3}, "", epoch.Add(time.Second))
	if err := registry.Register(&svcdesc.Description{
		Name: "svc", Provider: "backup", Reliability: 0.9, PowerLevel: 1,
	}); err != nil {
		t.Fatal(err)
	}
	txn := table.Open("svc", "mobile", transaction.Continuous, 1, qos.Benefit{}, epoch)

	reports, err := m.Sweep(epoch.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Peer != "mobile" || reports[0].Moved != 1 {
		t.Fatalf("reports = %+v", reports)
	}
	got, _ := txnOn(table, "backup", txn.ID)
	if got.Peer != "backup" || got.State != transaction.StateActive {
		t.Fatalf("txn = %+v", got)
	}

	// A second sweep finds nothing left to do (transactions already moved;
	// backup is parked inside the area).
	reports, err = m.Sweep(epoch.Add(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// The mobile node still predicts as departing but has no transactions;
	// empty reports are suppressed.
	if len(reports) != 0 {
		t.Fatalf("second sweep reports = %+v", reports)
	}
}
