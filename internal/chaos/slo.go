package chaos

import (
	"fmt"

	"ndsm/internal/flightrec"
	"ndsm/internal/slo"
	"ndsm/internal/telemetry"
)

// SLO-plane sizing, all in ticks. Windows are deliberately short — a chaos
// run is 30-90 ticks, so an alert must form (and clear) well inside one
// fault window for the alert-latency invariant to have anything to judge.
const (
	sloWindowTicks      = 8
	sloShortWindowTicks = 2
	sloClearAfter       = 2
)

// Objective names the SLO world installs. Invariants and experiments key
// TickRecord.Alerts by "<objective>/<node>".
const (
	FreshnessObjective = "telemetry-freshness"
	ControlObjective   = "control-deadline-miss"
	LookupObjective    = "lookup-availability"
)

// buildSLO assembles the consumer's burn-rate engine and flight recorder.
// The engine watches the same aggregator the telemetry plane fills; ratio
// objectives judge counters the consumer self-ingests each tick (sloStep),
// so replayed or stale supplier reports can never advance a window — the
// aggregator's seq monotonicity already rejected them.
func (w *World) buildSLO() error {
	eng, err := slo.New(slo.Options{
		Aggregator: w.agg,
		Clock:      w.clock,
	})
	if err != nil {
		return fmt.Errorf("chaos: slo engine: %w", err)
	}
	const tick = TickEvery
	objectives := []slo.Objective{{
		Name:        FreshnessObjective,
		Description: "every reporting node's telemetry stays fresh",
		Kind:        slo.KindFreshness,
		Window:      sloWindowTicks * tick,
		ShortWindow: sloShortWindowTicks * tick,
		Budget:      0.25, // a quarter of the window may be stale before burn 1
		WarnBurn:    1,
		CritBurn:    2, // critical: >= half the window stale, both windows
		ClearAfter:  sloClearAfter,
	}}
	if w.cfg.Overload {
		objectives = append(objectives, slo.Objective{
			Name:        ControlObjective,
			Description: "control-lane probes meet their deadline",
			Kind:        slo.KindRatio,
			Node:        ConsumerID,
			BadSeries:   "ctl.miss",
			TotalSeries: "ctl.total",
			Window:      sloWindowTicks * tick,
			ShortWindow: sloShortWindowTicks * tick,
			Budget:      0.1,
			WarnBurn:    1,
			CritBurn:    4,
			ClearAfter:  sloClearAfter,
		})
	}
	if w.cfg.Cluster {
		objectives = append(objectives, slo.Objective{
			Name:        LookupObjective,
			Description: "cached cluster lookups keep answering",
			Kind:        slo.KindRatio,
			Node:        ConsumerID,
			BadSeries:   "lookup.fail",
			TotalSeries: "lookup.total",
			Window:      (sloWindowTicks + 2) * tick,
			ShortWindow: sloShortWindowTicks * tick,
			// Mirrors the cluster-lookup-availability invariant: the
			// detection allowance after a member kill may fail a few probes
			// without an alert; only sustained unavailability (replication
			// actually broken) goes critical.
			Budget:     0.25,
			WarnBurn:   1,
			CritBurn:   2,
			ClearAfter: sloClearAfter,
		})
	}
	for _, o := range objectives {
		if err := eng.Add(o); err != nil {
			return fmt.Errorf("chaos: slo objective %s: %w", o.Name, err)
		}
	}

	w.flight = flightrec.NewRecorder(flightrec.Options{
		Clock: w.clock,
		// One bundle per tick at most: a multi-node critical cascade within a
		// tick records once, with the rest counted as suppressed.
		MinInterval: tick,
		Spans:       w.spans,
		Health:      w.health,
		Aggregator:  w.agg,
	})
	eng.Alerts().Notify(func(t slo.Transition) {
		w.mu.Lock()
		w.alertTrans = append(w.alertTrans, t)
		w.mu.Unlock()
		if t.To == slo.Critical {
			w.flight.Snapshot(flightrec.Trigger{
				Objective: t.Objective,
				Node:      t.Node,
				Severity:  t.To.String(),
				Windows: map[string]float64{
					"burnLong":    t.BurnLong,
					"burnShort":   t.BurnShort,
					"badFraction": t.BadFraction,
				},
			})
		}
	})
	w.sloEngine = eng
	return nil
}

// sloStep runs the alerting plane's per-tick work: ingest the consumer's own
// workload counters from the tick's record, evaluate every objective once at
// the tick's clock, and return the severity snapshot the alert-latency
// invariant replays.
func (w *World) sloStep(rec TickRecord) map[string]slo.Severity {
	w.sloSeq++
	lookupOK := rec.LookupOK
	if w.clusterProbe != nil {
		// Cluster worlds judge availability on the cached cluster path — the
		// mechanism under test — not the flood-backed full view.
		lookupOK = rec.ClusterOK
	}
	counters := map[string]int64{"lookup.total": 1}
	if !lookupOK {
		counters["lookup.fail"] = 1
	}
	if rec.CtlIssued {
		counters["ctl.total"] = 1
		if !rec.CtlOK {
			counters["ctl.miss"] = 1
		}
	}
	if rec.BulkAdmitted+rec.BulkShed > 0 {
		counters["bulk.total"] = int64(rec.BulkAdmitted + rec.BulkShed)
		counters["bulk.shed"] = int64(rec.BulkShed)
	}
	_ = w.agg.Ingest(&telemetry.Report{
		Node:     ConsumerID,
		Seq:      w.sloSeq,
		Time:     w.clock.Now(),
		Counters: counters,
	})
	w.sloEngine.Evaluate()

	states := w.sloEngine.States()
	snap := make(map[string]slo.Severity, len(states))
	for _, st := range states {
		snap[sloKey(st.Objective, st.Node)] = st.Severity
	}
	return snap
}

// SLO returns the consumer's burn-rate engine (nil unless the world was
// built with SLO).
func (w *World) SLO() *slo.Engine { return w.sloEngine }

// FlightRecorder returns the consumer's flight recorder (nil unless SLO).
func (w *World) FlightRecorder() *flightrec.Recorder { return w.flight }

// AlertTransitions returns every alert state change over the run, in order
// (empty unless SLO). A calm soak asserts this is empty.
func (w *World) AlertTransitions() []slo.Transition {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]slo.Transition(nil), w.alertTrans...)
}

// sloKey builds a TickRecord.Alerts key.
func sloKey(objective, node string) string { return objective + "/" + node }
