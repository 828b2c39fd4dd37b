package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ndsm/internal/chaos"
	"ndsm/internal/endpoint"
	"ndsm/internal/obs"
	"ndsm/internal/slo"
	"ndsm/internal/stats"
	"ndsm/internal/telemetry"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// E14Options sizes the SLO detection-and-adaptation experiment.
type E14Options struct {
	// Seed fixes the chaos substrate RNG (default 14).
	Seed int64
	// Ticks is each simulated leg's length (default 70).
	Ticks int
	// FaultAt is the tick offset of the injected fault (default 10).
	FaultAt int
	// FaultTicks is how long the fault holds (default 25).
	FaultTicks int
	// Members sizes the registry cluster in the member-kill leg (default 3,
	// RF 2; two members die at once, so quorum lookups must fail).
	Members int
	// FloodFor is the real-time overload leg's burn phase (default 450ms).
	FloodFor time.Duration
	// Recovery is the post-flood observation phase (default 400ms).
	Recovery time.Duration
	// Window is the overload leg's long burn window. It must cover the whole
	// flood so the alert cannot clear while the fault is still live (default
	// 500ms; see the objective comment in e14Overload).
	Window time.Duration
	// Load is the bulk flood's offered-load multiple of capacity (default 2).
	Load float64
	// ServiceTime is the simulated per-request work (default 2ms).
	ServiceTime time.Duration
	// MaxInFlight is the server's concurrency bound (default 8).
	MaxInFlight int
	// ControlPeriod spaces the control loop; deadline = period (default 10ms).
	ControlPeriod time.Duration
	// Boost is the control-lane quota the adapter widens to (default 2).
	Boost int
	// CalmSeeds is the calm-soak leg's seed count (default 5).
	CalmSeeds int
}

func (o E14Options) withDefaults() E14Options {
	if o.Seed == 0 {
		o.Seed = 14
	}
	if o.Ticks <= 0 {
		o.Ticks = 70
	}
	if o.FaultAt <= 0 {
		o.FaultAt = 10
	}
	if o.FaultTicks <= 0 {
		o.FaultTicks = 25
	}
	if o.Members <= 0 {
		o.Members = 3
	}
	if o.FloodFor <= 0 {
		o.FloodFor = 450 * time.Millisecond
	}
	if o.Recovery <= 0 {
		o.Recovery = 400 * time.Millisecond
	}
	if o.Window <= 0 {
		o.Window = 500 * time.Millisecond
	}
	if o.Load <= 0 {
		o.Load = 2
	}
	if o.ServiceTime <= 0 {
		o.ServiceTime = 2 * time.Millisecond
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 8
	}
	if o.ControlPeriod <= 0 {
		o.ControlPeriod = 10 * time.Millisecond
	}
	if o.Boost <= 0 {
		o.Boost = 2
	}
	if o.CalmSeeds <= 0 {
		o.CalmSeeds = 5
	}
	return o
}

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

// E14 measures the alerting plane's detection latency and the quota adapter's
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
func E14(opts E14Options) (Result, error) {
	opts = opts.withDefaults()
	const tickEvery = 50 * time.Millisecond
	healAt := opts.FaultAt + opts.FaultTicks

	// Leg 1: partition one supplier; the freshness objective must notice.
	partition, err := e14ChaosLeg(chaos.ScenarioConfig{
		Seed:      opts.Seed,
		Ticks:     opts.Ticks,
		TickEvery: tickEvery,
		SLO:       true,
		Schedule: chaos.Schedule{{
			At:       time.Duration(opts.FaultAt) * tickEvery,
			Fault:    chaos.FaultPartition,
			Target:   "s2",
			Duration: time.Duration(opts.FaultTicks) * tickEvery,
		}},
	}, chaos.FreshnessObjective, "s2", tickEvery, opts.FaultAt, healAt)
	if err != nil {
		return Result{}, fmt.Errorf("E14 partition: %w", err)
	}

	// Leg 2: kill two of three cluster members at once. RF 2 means some owner
	// sets are now fully dead and the N-RF+1 quorum is unreachable, so cached
	// lookups start failing when the stale window runs out.
	memberKill, err := e14ChaosLeg(chaos.ScenarioConfig{
		Seed:            opts.Seed,
		Ticks:           opts.Ticks,
		TickEvery:       tickEvery,
		SLO:             true,
		RegistryCluster: opts.Members,
		Schedule: chaos.Schedule{
			{
				At:       time.Duration(opts.FaultAt) * tickEvery,
				Fault:    chaos.FaultKillRegistryNode,
				Target:   "registry1",
				Duration: time.Duration(opts.FaultTicks) * tickEvery,
			},
			{
				At:       time.Duration(opts.FaultAt) * tickEvery,
				Fault:    chaos.FaultKillRegistryNode,
				Target:   "registry2",
				Duration: time.Duration(opts.FaultTicks) * tickEvery,
			},
		},
	}, chaos.LookupObjective, chaos.ConsumerID, tickEvery, opts.FaultAt, healAt)
	if err != nil {
		return Result{}, fmt.Errorf("E14 member kill: %w", err)
	}

	// Leg 3: the calm control. Same worlds, workload on, faults suppressed.
	calmAlerts, calmViolations := 0, 0
	calmReport, err := chaos.Soak(chaos.SoakConfig{
		Scenarios: opts.CalmSeeds,
		BaseSeed:  opts.Seed * 100,
		Scenario: chaos.ScenarioConfig{
			Ticks:    opts.Ticks / 2,
			SLO:      true,
			Overload: true,
			NoFaults: true,
		},
	})
	if err != nil {
		return Result{}, fmt.Errorf("E14 calm soak: %w", err)
	}
	for _, res := range calmReport.Results {
		calmAlerts += len(res.Alerts)
		calmViolations += len(res.Violations)
	}

	// Leg 4: real-time overload, with and without the quota adapter.
	bare, err := e14Overload(false, opts)
	if err != nil {
		return Result{}, fmt.Errorf("E14 overload (no adapter): %w", err)
	}
	adapted, err := e14Overload(true, opts)
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
			opts.FaultAt, opts.FaultTicks, opts.Ticks),
		fmt.Sprintf("calm soak: %d fault-free seeds x %d ticks with the overload workload live — any alert is a false positive.",
			opts.CalmSeeds, opts.Ticks/2),
		fmt.Sprintf("overload leg: %.0fx bulk flood for %v at a lane-aware server with zero control reservation (MaxInFlight %d);",
			opts.Load, opts.FloodFor, opts.MaxInFlight),
		fmt.Sprintf("the adapter widens the control lane to %d on warning and decays back after the alert clears.", opts.Boost),
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
// the clock advances, so a transition stamped t happened on tick t/tickEvery-1.
func e14ChaosLeg(cfg chaos.ScenarioConfig, objective, node string, tickEvery time.Duration, faultAt, healAt int) (e14Detection, error) {
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
		tick := int(tr.At.Sub(epoch)/tickEvery) - 1
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
func e14Overload(withAdapter bool, opts E14Options) (e14OverloadPoint, error) {
	p := e14OverloadPoint{alertAt: -1, adaptAt: -1, decayAfter: -1}
	reg := obs.NewRegistry()
	tr := transport.NewMem(transport.NewFabric())
	l, err := tr.Listen("srv")
	if err != nil {
		return p, err
	}
	srv := endpoint.NewServer(l, endpoint.ServerOptions{
		Name:        "srv",
		MaxInFlight: opts.MaxInFlight,
		Metrics:     obs.NewRegistry(),
		// Lane-aware but with nothing reserved and no waiting room: the shape
		// a fleet starts in before anyone has tuned quotas. Saturation sheds
		// immediately, so the flood starves control until the adapter acts.
		Lanes: &endpoint.LaneConfig{},
	})
	defer srv.Close()
	srv.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		time.Sleep(opts.ServiceTime)
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	ctl, err := endpoint.NewCaller(tr, "srv", endpoint.CallerOptions{Lane: endpoint.LaneControl})
	if err != nil {
		return p, err
	}
	defer ctl.Close()
	bulk, err := endpoint.NewCaller(tr, "srv", endpoint.CallerOptions{Lane: endpoint.LaneBulk})
	if err != nil {
		return p, err
	}
	defer bulk.Close()

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
		Window:      opts.Window,
		ShortWindow: 5 * opts.ControlPeriod,
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
			Boost:     opts.Boost,
			Servers:   []slo.LaneServer{srv},
			Registry:  reg,
		})
		if err != nil {
			return p, err
		}
	}

	start := time.Now()
	stop := make(chan struct{})
	var wg, futs sync.WaitGroup
	var offered atomic.Int64
	rate := opts.Load * float64(opts.MaxInFlight) / opts.ServiceTime.Seconds()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			elapsed := time.Since(start)
			if elapsed >= opts.FloodFor {
				return
			}
			due := int64(elapsed.Seconds() * rate)
			for offered.Load() < due {
				offered.Add(1)
				fut := bulk.Go(&endpoint.Call{Topic: "work", Timeout: opts.FloodFor})
				futs.Add(1)
				go func() {
					defer futs.Done()
					_, _ = fut.Wait()
				}()
			}
		}
	}()

	type sample struct {
		at    time.Duration
		miss  bool
		sev   slo.Severity
		quota int
	}
	var samples []sample
	total := opts.FloodFor + opts.Recovery
	for time.Since(start) < total {
		began := time.Now()
		_, err := ctl.Do(&endpoint.Call{Topic: "work", Timeout: opts.ControlPeriod})
		miss := err != nil
		reg.Counter("ctl.total").Inc(1)
		if miss {
			reg.Counter("ctl.miss").Inc(1)
		}
		if err := pub.Publish(); err != nil {
			close(stop)
			wg.Wait()
			futs.Wait()
			return p, err
		}
		eng.Evaluate()
		s := sample{at: time.Since(start), miss: miss, sev: eng.SeverityOf(chaos.ControlObjective)}
		if adapter != nil {
			s.quota = adapter.Quota()
		}
		samples = append(samples, s)
		if rest := opts.ControlPeriod - time.Since(began); rest > 0 {
			time.Sleep(rest)
		}
	}
	close(stop)
	wg.Wait()
	futs.Wait()

	for _, s := range samples {
		if p.alertAt < 0 && s.sev >= slo.Critical {
			p.alertAt = s.at
		}
		if p.adaptAt < 0 && adapter != nil && s.quota >= opts.Boost {
			p.adaptAt = s.at
		}
		if p.decayAfter < 0 && adapter != nil && s.at > opts.FloodFor && s.quota == 0 {
			p.decayAfter = s.at - opts.FloodFor
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
	grace := 2 * opts.ControlPeriod
	var preMiss, preTotal, postMiss, postTotal int
	for _, s := range samples {
		if s.at > opts.FloodFor {
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
