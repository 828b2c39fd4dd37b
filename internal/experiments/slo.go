package experiments

import (
	"fmt"
	"time"

	"ndsm/internal/chaos"
	"ndsm/internal/endpoint"
	"ndsm/internal/obs"
	"ndsm/internal/slo"
	"ndsm/internal/stats"
	"ndsm/internal/telemetry"
)

const (
	e14Boost = 2   // the control-lane quota the adapter widens to
	e14Load  = 2.0 // the overload leg's flood, a multiple of capacity
)

// e14Missing marks an alert that never fired (or cleared) in a leg's table
// cell. A sentinel far above any plausible bound keeps the cell numeric so
// the baseline gate "alert ticks > N" catches a broken detector.
const e14Missing = 999

// e14Detection is one simulated leg's reading of the alert feed.
type e14Detection struct {
	alertTicks  int // first critical, ticks after injection
	clearTicks  int // final return to ok, ticks after the heal
	transitions int // state changes for this alert instance (flapping shows here)
	violations  []string
}

// e14Gates: every fault class must reach critical within its bound, a calm
// world must raise nothing, and the quota adapter must actually stop the
// control-lane misses it was built to stop. Detection that is slow, noisy,
// or toothless is a regression.
var e14Gates = []Gate{
	{"E14: time to alert by fault class (virtual time)/partition (telemetry-freshness)/alert ticks", 10,
		"partition detection latency"},
	{"E14: time to alert by fault class (virtual time)/registry member kills (lookup-availability)/alert ticks", 15,
		"member-kill detection latency"},
	{"E14: time to alert by fault class (virtual time)/calm soak/transitions", 0,
		"calm-world false-positive alerts"},
	{"E14: overload adaptation (real time)/adapter/ctl miss % post-adapt", 1,
		"control-lane miss rate after the quota adapter reacted"},
}

// e14 measures the alerting plane's detection latency and the quota adapter's
// reaction across three fault classes, plus a calm-world control:
//
//   - a supplier partition must drive the telemetry-freshness objective
//     critical within the alert-latency bound and decay back after the heal;
//   - killing two of three registry members (RF 2) must break the quorum
//     lookup path and drive lookup-availability critical once the lease
//     cache's stale window runs out;
//   - a real-time 2x bulk flood against a lane-aware server with *zero*
//     control reservation must burn the control deadline-miss objective, and
//     the alert-driven quota adapter must widen the control lane until misses
//     stop — then decay back to zero after the flood;
//   - a calm soak (faults suppressed, workload live) must raise no alert at
//     all: detection speed is only worth having at zero false positives.
//
// The first two legs run on the chaos substrate's virtual clock, so "time to
// alert" is deterministic ticks; the overload leg is wall-clock like E13.
func e14(quick bool) (Result, error) {
	const (
		seed    = 14 // fixes the chaos substrate RNG
		faultAt = 10 // tick of the injected fault
	)
	ticks := pick(quick, 60, 70)      // each simulated leg's length
	faultTicks := pick(quick, 18, 25) // how long the fault holds
	calmSeeds := pick(quick, 2, 5)
	// The real-time overload leg: its burn phase, the observation after it,
	// and its long burn window. The window must cover the whole flood so the
	// alert cannot clear while the fault is still live (see the objective
	// comment in e14Overload).
	floodFor := pick(quick, 250*time.Millisecond, 450*time.Millisecond)
	recovery := pick(quick, 300*time.Millisecond, 400*time.Millisecond)
	window := pick(quick, 300*time.Millisecond, 500*time.Millisecond)
	healAt := faultAt + faultTicks

	// Leg 1: partition one supplier; the freshness objective must notice.
	partition, err := e14ChaosLeg(chaos.ScenarioConfig{
		WorldConfig: chaos.WorldConfig{Seed: seed, SLO: true},
		Ticks:       ticks,
		Schedule: chaos.Schedule{{
			At:       time.Duration(faultAt) * chaos.TickEvery,
			Fault:    chaos.FaultPartition,
			Target:   "s2",
			Duration: time.Duration(faultTicks) * chaos.TickEvery,
		}},
	}, chaos.FreshnessObjective, "s2", faultAt, healAt)
	if err != nil {
		return Result{}, fmt.Errorf("E14 partition: %w", err)
	}

	// Leg 2: kill two of the cluster's three members at once. RF 2 means some
	// owner sets are now fully dead and the N-RF+1 quorum is unreachable, so
	// cached lookups start failing when the stale window runs out.
	memberKill, err := e14ChaosLeg(chaos.ScenarioConfig{
		WorldConfig: chaos.WorldConfig{Seed: seed, SLO: true, Cluster: true},
		Ticks:       ticks,
		Schedule: chaos.Schedule{
			{
				At:       time.Duration(faultAt) * chaos.TickEvery,
				Fault:    chaos.FaultKillRegistryNode,
				Target:   "registry1",
				Duration: time.Duration(faultTicks) * chaos.TickEvery,
			},
			{
				At:       time.Duration(faultAt) * chaos.TickEvery,
				Fault:    chaos.FaultKillRegistryNode,
				Target:   "registry2",
				Duration: time.Duration(faultTicks) * chaos.TickEvery,
			},
		},
	}, chaos.LookupObjective, chaos.ConsumerID, faultAt, healAt)
	if err != nil {
		return Result{}, fmt.Errorf("E14 member kill: %w", err)
	}

	// Leg 3: the calm control. Same worlds, workload on, faults suppressed.
	calmAlerts, calmViolations := 0, 0
	calmReport, err := chaos.Soak(chaos.ScenarioConfig{
		WorldConfig: chaos.WorldConfig{Seed: seed * 100, SLO: true, Overload: true},
		Ticks:       ticks / 2,
	}, calmSeeds)
	if err != nil {
		return Result{}, fmt.Errorf("E14 calm soak: %w", err)
	}
	for _, res := range calmReport.Results {
		calmAlerts += len(res.Alerts)
		calmViolations += len(res.Violations)
	}

	// Leg 4: real-time overload, with and without the quota adapter.
	bare, err := e14Overload(false, floodFor, recovery, window)
	if err != nil {
		return Result{}, fmt.Errorf("E14 overload (no adapter): %w", err)
	}
	adapted, err := e14Overload(true, floodFor, recovery, window)
	if err != nil {
		return Result{}, fmt.Errorf("E14 overload (adapter): %w", err)
	}

	detect := stats.NewTable("E14: time to alert by fault class (virtual time)",
		"fault class", "alert ticks", "clear ticks", "transitions", "violations")
	detect.AddRow("partition (telemetry-freshness)",
		partition.alertTicks, partition.clearTicks, partition.transitions, len(partition.violations))
	detect.AddRow("registry member kills (lookup-availability)",
		memberKill.alertTicks, memberKill.clearTicks, memberKill.transitions, len(memberKill.violations))
	detect.AddRow("calm soak", "n/a", "n/a", calmAlerts, calmViolations)

	adapt := stats.NewTable("E14: overload adaptation (real time)",
		"mode", "alert ms", "adapt ms", "ctl miss % pre-adapt", "ctl miss % post-adapt",
		"decay ms", "boosts")
	addOverloadRow := func(name string, p e14OverloadPoint) {
		ms := func(d time.Duration) interface{} {
			if d < 0 {
				return "n/a"
			}
			return float64(d.Milliseconds())
		}
		adapt.AddRow(name, ms(p.alertAt), ms(p.adaptAt), p.preMissPct, p.postMissPct,
			ms(p.decayAfter), p.boosts)
	}
	addOverloadRow("no adapter", bare)
	addOverloadRow("adapter", adapted)

	notes := []string{
		fmt.Sprintf("simulated legs: fault at tick %d for %d ticks of %d; chaos SLO windows apply (freshness crit = half the window stale).",
			faultAt, faultTicks, ticks),
		fmt.Sprintf("calm soak: %d fault-free seeds x %d ticks with the overload workload live — any alert is a false positive.",
			calmSeeds, ticks/2),
		fmt.Sprintf("overload leg: %.0fx bulk flood for %v at a lane-aware server with zero control reservation (MaxInFlight %d);",
			e14Load, floodFor, overloadSlots),
		fmt.Sprintf("the adapter widens the control lane to %d on warning and decays back after the alert clears.", e14Boost),
		"member-kill violations are the induced outage itself: two dead members exceed what RF 2 can mask, which is the point.",
	}
	if !adapted.clearedOK {
		notes = append(notes, "VIOLATION (adapter) alert did not return to ok after the flood stopped.")
	}
	if adapted.finalQuota != 0 {
		notes = append(notes, fmt.Sprintf("VIOLATION (adapter) quota %d after recovery, want base 0.", adapted.finalQuota))
	}
	for _, v := range partition.violations {
		notes = append(notes, "VIOLATION (partition) "+v)
	}
	return Result{
		ID:     "E14",
		Title:  "SLO burn-rate alerting: detection latency and alert-driven quota adaptation",
		Tables: []*stats.Table{detect, adapt},
		Notes:  notes,
	}, nil
}

// e14ChaosLeg runs one fault schedule through a chaos SLO world and reads the
// named alert instance's detection latency off the transition stamps. The
// substrate's virtual epoch is time.Unix(0,0) and each tick evaluates after
// the clock advances, so a transition stamped t happened on tick
// t/chaos.TickEvery-1.
func e14ChaosLeg(cfg chaos.ScenarioConfig, objective, node string, faultAt, healAt int) (e14Detection, error) {
	res, err := chaos.RunScenario(cfg)
	if err != nil {
		return e14Detection{}, err
	}
	d := e14Detection{alertTicks: e14Missing, clearTicks: e14Missing, violations: res.Violations}
	epoch := time.Unix(0, 0)
	for _, tr := range res.Alerts {
		if tr.Objective != objective || tr.Node != node {
			continue
		}
		d.transitions++
		tick := int(tr.At.Sub(epoch)/chaos.TickEvery) - 1
		if tr.To == slo.Critical && d.alertTicks == e14Missing {
			d.alertTicks = tick - faultAt
		}
		if tr.To == slo.OK && tick >= healAt {
			d.clearTicks = tick - healAt
		}
	}
	return d, nil
}

// e14OverloadPoint is one real-time overload run's reading.
type e14OverloadPoint struct {
	alertAt     time.Duration // first critical (-1: never)
	adaptAt     time.Duration // first boosted quota (-1: never / no adapter)
	decayAfter  time.Duration // quota back to base, measured from flood end
	preMissPct  float64       // control misses before the adapt (or alert) point
	postMissPct float64       // control misses after it, to flood end
	boosts      int64
	clearedOK   bool
	finalQuota  int
}

// e14Overload drives the E13 workload shape — a periodic control loop beside
// an open-loop bulk flood — at a lane-aware server whose control lane starts
// with no reservation at all, so the flood starves the control loop exactly
// like the flat bound. The deadline-miss objective burns, and with the
// adapter on, the resulting alert widens the control lane out of the shared
// pool until the loop stops missing; when the flood ends and the alert
// clears, the quota decays back to zero.
func e14Overload(withAdapter bool, floodFor, recovery, window time.Duration) (e14OverloadPoint, error) {
	p := e14OverloadPoint{alertAt: -1, adaptAt: -1, decayAfter: -1}
	reg := obs.NewRegistry()
	// Lane-aware but with nothing reserved and no waiting room: the shape a
	// fleet starts in before anyone has tuned quotas. Saturation sheds
	// immediately, so the flood starves control until the adapter acts.
	rig, err := newOverloadRig(&endpoint.LaneConfig{}, obs.NewRegistry())
	if err != nil {
		return p, err
	}
	defer rig.close()

	// The alerting plane: the control loop publishes its own hit/miss
	// counters into a local aggregator after every probe, and the engine
	// evaluates at the same cadence — detection latency is then a property
	// of the windows, not of a publish interval.
	agg := telemetry.NewAggregator(telemetry.AggregatorOptions{
		StaleAfter: time.Minute,
		Registry:   obs.NewRegistry(),
	})
	pub, err := telemetry.NewPublisher(telemetry.PublisherOptions{
		Node:     "ctl-loop",
		Registry: reg,
		Send:     func(r *telemetry.Report) error { return agg.Ingest(r) },
	})
	if err != nil {
		return p, err
	}
	eng, err := slo.New(slo.Options{Aggregator: agg})
	if err != nil {
		return p, err
	}
	// Budget 2%: a control plane that misses more than one probe in fifty is
	// degraded. The tight budget also pins the alert up for the whole flood:
	// with the long window covering the full burn phase, even the couple of
	// pre-boost misses keep burnLong >= 1, so the adapter cannot decay (and
	// re-expose the loop) while the flood is still running.
	err = eng.Add(slo.Objective{
		Name:        chaos.ControlObjective,
		Description: "control-lane probes meet their deadline",
		Kind:        slo.KindRatio,
		Node:        "ctl-loop",
		BadSeries:   "ctl.miss",
		TotalSeries: "ctl.total",
		Window:      window,
		ShortWindow: 5 * overloadPeriod,
		Budget:      0.02,
		WarnBurn:    1,
		CritBurn:    4,
		ClearAfter:  2,
	})
	if err != nil {
		return p, err
	}
	var adapter *slo.QuotaAdapter
	if withAdapter {
		adapter, err = slo.NewQuotaAdapter(eng, slo.QuotaAdapterOptions{
			Objective: chaos.ControlObjective,
			Base:      0,
			Boost:     e14Boost,
			Servers:   []slo.LaneServer{rig.srv},
			Registry:  reg,
		})
		if err != nil {
			return p, err
		}
	}

	start := time.Now()
	stop := make(chan struct{})
	wait := rig.flood(start, e14Load, floodFor, floodFor, stop, func(error) {})

	type sample struct {
		at    time.Duration
		miss  bool
		sev   slo.Severity
		quota int
	}
	var samples []sample
	total := floodFor + recovery
	for time.Since(start) < total {
		began := time.Now()
		_, err := rig.ctl.Do(&endpoint.Call{Topic: "work", Timeout: overloadPeriod})
		miss := err != nil
		reg.Counter("ctl.total").Inc(1)
		if miss {
			reg.Counter("ctl.miss").Inc(1)
		}
		if err := pub.Publish(); err != nil {
			close(stop)
			wait()
			return p, err
		}
		eng.Evaluate()
		s := sample{at: time.Since(start), miss: miss, sev: eng.SeverityOf(chaos.ControlObjective)}
		if adapter != nil {
			s.quota = adapter.Quota()
		}
		samples = append(samples, s)
		if rest := overloadPeriod - time.Since(began); rest > 0 {
			time.Sleep(rest)
		}
	}
	close(stop)
	wait()

	for _, s := range samples {
		if p.alertAt < 0 && s.sev >= slo.Critical {
			p.alertAt = s.at
		}
		if p.adaptAt < 0 && adapter != nil && s.quota >= e14Boost {
			p.adaptAt = s.at
		}
		if p.decayAfter < 0 && adapter != nil && s.at > floodFor && s.quota == 0 {
			p.decayAfter = s.at - floodFor
		}
	}
	// Split the flood phase at the adapt point (alert point without an
	// adapter, so both rows read "did anything change after detection").
	// Two periods of grace cover the probe already in flight when the quota
	// widened.
	split := p.adaptAt
	if split < 0 {
		split = p.alertAt
	}
	grace := 2 * overloadPeriod
	var preMiss, preTotal, postMiss, postTotal int
	for _, s := range samples {
		if s.at > floodFor {
			continue
		}
		switch {
		case split < 0 || s.at <= split+grace:
			preTotal++
			if s.miss {
				preMiss++
			}
		default:
			postTotal++
			if s.miss {
				postMiss++
			}
		}
	}
	pct := func(part, total int) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(part) / float64(total)
	}
	p.preMissPct = pct(preMiss, preTotal)
	p.postMissPct = pct(postMiss, postTotal)
	if len(samples) > 0 {
		p.clearedOK = samples[len(samples)-1].sev == slo.OK
	}
	if adapter != nil {
		p.finalQuota = adapter.Quota()
		p.boosts = reg.Counter("slo.adapter.boosts").Value()
	}
	return p, nil
}
