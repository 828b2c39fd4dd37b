package webbridge

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ndsm/internal/discovery"
	"ndsm/internal/flightrec"
	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/slo"
	"ndsm/internal/telemetry"
)

// sloFixture builds a bridge with an aggregator + engine whose one
// deadline-miss objective is driven to critical on a virtual clock.
func sloFixture(t *testing.T) (*httptest.Server, *slo.Engine, *flightrec.Recorder) {
	t.Helper()
	vc := simtime.NewVirtual(time.Unix(0, 0))
	agg := telemetry.NewAggregator(telemetry.AggregatorOptions{
		Clock: vc, StaleAfter: time.Hour, Registry: obs.NewRegistry(),
	})
	eng, err := slo.New(slo.Options{Aggregator: agg, Clock: vc, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Add(slo.Objective{
		Name: "ctl-miss", Kind: slo.KindRatio, Node: "n1",
		BadSeries: "ctl.miss", TotalSeries: "ctl.total",
		Budget: 0.1, Window: 10 * time.Second, ShortWindow: 2 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	rec := flightrec.NewRecorder(flightrec.Options{Clock: vc, Aggregator: agg})
	eng.Alerts().Notify(func(tr slo.Transition) {
		if tr.To == slo.Critical {
			rec.Snapshot(flightrec.Trigger{
				Objective: tr.Objective, Node: tr.Node, Severity: tr.To.String(),
				Windows: map[string]float64{"burnLong": tr.BurnLong, "burnShort": tr.BurnShort},
			})
		}
	})
	for i := 1; i <= 4; i++ {
		vc.Advance(time.Second)
		if err := agg.Ingest(&telemetry.Report{
			Node: "n1", Seq: uint64(i), Time: vc.Now(),
			Counters: map[string]int64{"ctl.total": 10, "ctl.miss": 10},
		}); err != nil {
			t.Fatal(err)
		}
		eng.Evaluate()
	}

	bridge := New(discovery.NewStore(nil, 0), nil)
	bridge.SetAggregator(agg)
	bridge.SetSLO(eng)
	bridge.SetFlightRecorder(rec)
	srv := httptest.NewServer(bridge)
	t.Cleanup(srv.Close)
	return srv, eng, rec
}

// TestAlertsEndpoint serves live alert state with the severity summary.
func TestAlertsEndpoint(t *testing.T) {
	srv, _, _ := sloFixture(t)
	resp, err := http.Get(srv.URL + "/alerts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc struct {
		Summary slo.Summary `json:"summary"`
		Alerts  []struct {
			Objective string  `json:"objective"`
			Severity  string  `json:"severity"`
			BurnLong  float64 `json:"burnLong"`
		} `json:"alerts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Summary.Critical != 1 {
		t.Fatalf("summary %+v, want 1 critical", doc.Summary)
	}
	if len(doc.Alerts) != 1 || doc.Alerts[0].Objective != "ctl-miss" || doc.Alerts[0].Severity != "critical" {
		t.Fatalf("alerts %+v", doc.Alerts)
	}
	if doc.Alerts[0].BurnLong < 4 {
		t.Fatalf("burn %v, want >= 4", doc.Alerts[0].BurnLong)
	}
}

// TestFlightEndpoint serves the recorder's post-mortem bundles.
func TestFlightEndpoint(t *testing.T) {
	srv, _, rec := sloFixture(t)
	if len(rec.Bundles()) == 0 {
		t.Fatal("critical transition cut no bundle")
	}
	resp, err := http.Get(srv.URL + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	var doc struct {
		Bundles []struct {
			Trigger flightrec.Trigger `json:"trigger"`
		} `json:"bundles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Bundles) != 1 || doc.Bundles[0].Trigger.Objective != "ctl-miss" {
		t.Fatalf("flight doc %+v", doc)
	}
	if doc.Bundles[0].Trigger.Windows["burnLong"] < 4 {
		t.Fatalf("bundle lacks window values: %+v", doc.Bundles[0].Trigger)
	}
}

// TestHealthzAlertSummary is the satellite bugfix: /healthz must carry the
// severity digest when an engine is attached, and stay clean without one.
func TestHealthzAlertSummary(t *testing.T) {
	srv, _, _ := sloFixture(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	var doc struct {
		Status string       `json:"status"`
		Alerts *slo.Summary `json:"alerts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || doc.Alerts == nil || doc.Alerts.Critical != 1 {
		t.Fatalf("healthz %+v, want alert summary with 1 critical", doc)
	}

	// Without an engine the field is absent entirely.
	bare := httptest.NewServer(New(discovery.NewStore(nil, 0), nil))
	defer bare.Close()
	resp2, err := http.Get(bare.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close() //nolint:errcheck
	body, _ := io.ReadAll(resp2.Body)
	if strings.Contains(string(body), "alerts") {
		t.Fatalf("bare healthz leaks an alerts field: %s", body)
	}
}

// TestDashAlertsPanel: the dashboard shows the alerts panel when an engine
// is attached.
func TestDashAlertsPanel(t *testing.T) {
	srv, _, _ := sloFixture(t)
	resp, err := http.Get(srv.URL + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	body, _ := io.ReadAll(resp.Body)
	page := string(body)
	for _, want := range []string{"SLO alerts", "ctl-miss", "sev-critical"} {
		if !strings.Contains(page, want) {
			t.Fatalf("dash missing %q", want)
		}
	}
}

// TestAlertsNotAttached: both endpoints 404 cleanly without their planes.
func TestAlertsNotAttached(t *testing.T) {
	srv := httptest.NewServer(New(discovery.NewStore(nil, 0), nil))
	defer srv.Close()
	for _, path := range []string{"/alerts", "/flight"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status %d, want 404", path, resp.StatusCode)
		}
	}
}
