package main

// metricDecl declares one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions (a test holds the two together); moves
// says which end-to-end metric a per-layer metric is expected to move, written
// down before anything was measured.
type metricDecl struct {
	name   string
	unit   string
	better string
	moves  string
	scaled bool // end-to-end metrics: a time or a rate, brought to the machine's nominal speed
}

// endToEnd is what a user of the middleware would see, in the order printed.
// Every workload reports every one; what each means on each workload is in
// the README's table.
var endToEnd = []metricDecl{
	{name: "setup_s", unit: "s", better: "lower", scaled: true},
	{name: "capacity_rps", unit: "1/s", better: "higher", scaled: true},
	{name: "rtt_p50_us", unit: "us", better: "lower", scaled: true},
	{name: "cpu_us_per_req", unit: "us", better: "lower", scaled: true},
	{name: "allocs_per_req", unit: "count", better: "lower"},
	{name: "bytes_per_req", unit: "B", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// phaseSuffix names the phase a segment mean was taken in: none for the
// unloaded round trip, where nothing queues and a layer's saving shows 1:1.
var phaseSuffix = map[string]string{"rtt": "", "capacity": ".capacity", "loaded": ".loaded"}

// segmentMoves is the expected interaction of each segment.
var segmentMoves = [numSegments]string{
	segClientDown: "rtt_p50_us, cpu_us_per_req on rpc_small_tcp",
	segSend:       "cpu_us_per_req, capacity_rps on rpc_large_tcp; x4 per publish on pubsub_fanout_tcp",
	segHopOut:     "loaded_p90_us (waiting), rtt_p50_us (decode)",
	segServerUp:   "loaded_p90_us on rpc_small_tcp and overload_lanes_mem (admit wait)",
	segHandler:    "none: a control",
	segServerDown: "cpu_us_per_req, rtt_p50_us on rpc_small_tcp",
	segHopBack:    "loaded_p90_us (waiting), rtt_p50_us (decode)",
	segClientUp:   "rtt_p50_us, loaded_p50_us on rpc_small_tcp",
}

// perLayer is everything else: measured at the benchmark's own seams in the
// traced run, or too unsteady on a shared two-core box to gate, or defined on
// one workload only.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	var out []metricDecl
	add := func(name, unit, better, moves string) {
		out = append(out, metricDecl{name: name, unit: unit, better: better, moves: moves})
	}
	for _, phase := range []string{"rtt", "capacity", "loaded"} {
		for i, name := range segmentNames {
			add(name+phaseSuffix[phase], "us", "lower", segmentMoves[i])
		}
		add("pubsub.publish_ack_us"+phaseSuffix[phase], "us", "lower", "capacity_rps on pubsub_fanout_tcp")
		add("pubsub.delivery_spread_us"+phaseSuffix[phase], "us", "lower", "loaded_p90_us on pubsub_fanout_tcp")
		add("trace.round_trip_us"+phaseSuffix[phase], "us", "lower", "the sum of the phase's segments")
	}
	add("loadgen.due_to_call_us", "us", "lower", "loaded_p50_us: time between a request's due instant and its call")
	add("trace.overhead_share", "share", "lower", "none: 1 - traced/untraced capacity_rps")
	add("trace.requests_tiled", "count", "higher", "none")
	add("trace.requests_excluded", "count", "lower", "none")
	add("budget.isolated_over_insitu", "share", "higher", "none: the gap is goroutine hand-offs between stages")

	add("transport.sends", "count", "lower", "cpu_us_per_req")
	add("transport.recvs", "count", "lower", "cpu_us_per_req")
	add("endpoint.inflight_peak", "count", "lower", "loaded_p90_us")
	add("endpoint.server_concurrency_peak", "count", "lower", "loaded_p90_us, peak_rss_mb")
	add("pubsub.delivered", "count", "higher", "capacity_rps on pubsub_fanout_tcp")
	add("pubsub.dropped", "count", "lower", "fail_share on pubsub_fanout_tcp")
	for _, lane := range []string{"control", "bulk"} {
		add("endpoint.admit.admitted."+lane, "count", "higher", "bulk_goodput_rps, control_miss_share")
		add("endpoint.admit.shed."+lane, "count", "lower", "bulk_shed_share, control_miss_share")
		add("endpoint.admit.queued."+lane, "count", "lower", "control_p90_us")
	}
	add("endpoint.admit.expired", "count", "lower", "bulk_shed_share")
	add("endpoint.admit.preempted", "count", "lower", "bulk_shed_share")

	add("runtime.gc_cycles", "count", "lower", "cpu_us_per_req, loaded_p90_us")
	add("runtime.gc_pause_ms", "ms", "lower", "loaded_p90_us, tail.*")
	add("runtime.goroutines_peak", "count", "lower", "peak_rss_mb")
	add("runtime.heap_peak_mb", "MB", "lower", "peak_rss_mb")

	add("loadgen.late_p50_us", "us", "lower", "none: how late the generator entered its calls")
	add("loadgen.late_p99_us", "us", "lower", "none")
	add("loadgen.achieved_share", "share", "higher", "none")
	add("loadgen.backlog_growth", "count", "lower", "none")

	// What the run read of the machine, and the scaled end-to-end metrics as
	// the clock gave them.
	add("machine.speed", "share", "higher", "none: the bare echo's rate over nominal; every end-to-end time and rate is brought to nominal by it")
	for _, d := range endToEnd {
		if d.scaled {
			add("raw."+d.name, d.unit, d.better, "none: "+d.name+" before scaling")
		}
	}

	// Percentiles that the box's freezes and slow stretches set: their spread
	// over ten runs of the seed was 13 to 126 per cent of their median.
	add("rtt_p90_us", "us", "lower", "ungated")
	add("loaded_p50_us", "us", "lower", "ungated: as measured, not brought to nominal speed")
	add("loaded_p90_us", "us", "lower", "ungated")
	add("tail.rtt_p99_us", "us", "lower", "ungated")
	add("tail.loaded_p99_us", "us", "lower", "ungated")
	add("tail.loaded_p999_us", "us", "lower", "ungated")
	add("tail.control_p99_us", "us", "lower", "ungated; overload_lanes_mem only")

	// Zero on a healthy seed, or defined on overload_lanes_mem only: the
	// acceptance contract wants end-to-end metrics that are never zero and
	// that every workload reports.
	add("fail_share", "share", "lower", "failed / attempted over every measured phase")
	add("control_p90_us", "us", "lower", "overload_lanes_mem: equals its loaded_p90_us")
	add("control_miss_share", "share", "lower", "overload_lanes_mem only")
	add("bulk_shed_share", "share", "lower", "overload_lanes_mem only")
	add("bulk_goodput_rps", "1/s", "higher", "overload_lanes_mem only")

	for _, d := range isolatedDrives {
		add(d.name, d.unit, "lower", d.moves)
	}
	return out
}

// reading is one metric's value in one run. Metrics taken per window carry
// the spread over the windows and the counts behind them; the others only v.
type reading struct {
	v       float64
	iqr     float64
	windows int
	samples int
	slices  bool // the spread and the count are over 100 ms slices, not windows
}

// metricSet is the readings of one run, by name.
type metricSet map[string]reading

func (m metricSet) set(name string, v float64) { m[name] = reading{v: v} }

func (m metricSet) add(name string, v float64) { m[name] = reading{v: m[name].v + v} }

func (m metricSet) windowed(name string, s summary, scale float64) {
	m[name] = reading{v: s.Median * scale, iqr: s.IQR * scale, windows: s.Windows, samples: s.Samples}
}

func (m metricSet) merge(o metricSet) {
	for k, v := range o {
		m[k] = v
	}
}

// fromPhases reads out of finished phases everything that needs no tracer:
// the end-to-end metrics (bar set-up and memory, which the caller adds) and
// the ungated numbers printed beside them. It also returns how many requests
// the measured phases attempted and how many of those failed.
func fromPhases(def workloadDef, phases phases) (m metricSet, attempted, failed int) {
	m = metricSet{}
	rtt, capacity, loaded := phases["rtt"], phases["capacity"], phases["loaded"]
	perCompletion := 1.0
	if def.copies > 1 {
		perCompletion = float64(def.copies) // pub/sub throughput counts deliveries
	}
	pick := func(name string, p *phaseStats, f func(*windowStats) float64) { m.windowed(name, p.over(f), 1) }
	// The speeds: per slice, over every slice of the phase.
	sliced := func(name string, p *phaseStats, unit float64, f func(*sliceStats) (float64, bool)) {
		s := p.overSlices(f)
		m[name] = reading{v: s.Mid * unit, iqr: s.IQR * unit, windows: s.Windows, samples: s.Samples, slices: true}
	}
	p50 := func(s *sliceStats) (float64, bool) { return s.p50, s.attempted > 0 }
	perAttempt := phases["bulk"] != nil // overload: refusing a request is work too
	sliced("capacity_rps", capacity, perCompletion, func(s *sliceStats) (float64, bool) { return s.perSec(), true })
	sliced("rtt_p50_us", rtt, 1, p50)
	sliced("loaded_p50_us", loaded, 1, p50)
	sliced("cpu_us_per_req", capacity, 1, func(s *sliceStats) (float64, bool) { return s.cpuUsPer(perAttempt) })
	pick("rtt_p90_us", rtt, func(w *windowStats) float64 { return w.p90 })
	pick("loaded_p90_us", loaded, func(w *windowStats) float64 { return w.p90 })
	pick("allocs_per_req", capacity, func(w *windowStats) float64 { return w.allocsPerReq })
	pick("bytes_per_req", capacity, func(w *windowStats) float64 { return w.bytesPerReq })

	pick("tail.rtt_p99_us", rtt, func(w *windowStats) float64 { return w.p99 })
	pick("tail.loaded_p99_us", loaded, func(w *windowStats) float64 { return w.p99 })
	pick("tail.loaded_p999_us", loaded, func(w *windowStats) float64 { return w.p999 })
	pick("loadgen.late_p50_us", loaded, func(w *windowStats) float64 { return w.lateP50 })
	pick("loadgen.late_p99_us", loaded, func(w *windowStats) float64 { return w.lateP99 })
	pick("loadgen.due_to_call_us", loaded, func(w *windowStats) float64 { return w.lateMeanUs })
	pick("loadgen.achieved_share", loaded, func(w *windowStats) float64 { return w.achievedShare })
	pick("loadgen.backlog_growth", loaded, func(w *windowStats) float64 { return float64(w.inflightEnd - w.inflightStart) })
	m.set("endpoint.inflight_peak", loaded.peak(func(w *windowStats) float64 { return float64(w.inflightPeak) }))

	heapPeak, goroutinesPeak := 0.0, 0.0
	for name, p := range phases {
		if phases["bulk"] != nil && (name == "bulk" || name == "loaded") {
			continue // overload: the one flood is counted once, through the cut that holds both lanes
		}
		attempted += p.attempted
		failed += p.failed
		for _, w := range p.windows {
			m.add("runtime.gc_cycles", float64(w.gcCycles))
			m.add("runtime.gc_pause_ms", w.gcPauseMs)
		}
		heapPeak = max(heapPeak, p.peak(func(w *windowStats) float64 { return w.heapInuseMB }))
		goroutinesPeak = max(goroutinesPeak, p.peak(func(w *windowStats) float64 { return float64(w.goroutinesPeak) }))
	}
	m.set("runtime.heap_peak_mb", heapPeak)
	m.set("runtime.goroutines_peak", goroutinesPeak)
	if bulk := phases["bulk"]; bulk != nil {
		share := func(part func(*windowStats) int) func(*windowStats) float64 {
			return func(w *windowStats) float64 { return float64(part(w)) / float64(w.attempted) }
		}
		m["control_p90_us"] = m["loaded_p90_us"]
		m["tail.control_p99_us"] = m["tail.loaded_p99_us"]
		pick("control_miss_share", loaded, share(func(w *windowStats) int { return w.missed }))
		pick("bulk_shed_share", bulk, share(func(w *windowStats) int { return w.shed }))
		pick("bulk_goodput_rps", bulk, func(w *windowStats) float64 { return w.completedPerSec })
		// Control calls are judged by control_miss_share; fail_share here is
		// the bulk requests that neither completed nor were cleanly refused.
		m.set("fail_share", float64(bulk.failed)/float64(bulk.attempted))
	} else if attempted > 0 {
		m.set("fail_share", float64(failed)/float64(attempted))
	}
	return m, attempted, failed
}

// fromSegments reads the traced phases' tilings into per-layer metrics.
func fromSegments(phases phases) metricSet {
	m := metricSet{}
	for phase, suffix := range phaseSuffix {
		p := phases[phase]
		if p == nil {
			continue
		}
		for name, sum := range p.extra {
			m.set(name+suffix, sum/float64(len(p.windows))) // each window's mean, averaged
		}
		if p.segments == nil {
			continue
		}
		for i, name := range segmentNames {
			m.set(name+suffix, p.segments.meanUs(i))
		}
		m.set("trace.round_trip_us"+suffix, p.segments.rttUs())
		m.add("trace.requests_tiled", float64(p.segments.tiled))
		m.add("trace.requests_excluded", float64(p.segments.excluded))
	}
	return m
}

// atNominalSpeed brings the end-to-end metrics that are a time or a rate to
// the machine's nominal speed: a time is multiplied by the speed the run read
// (a machine at 0.8 of nominal took 1/0.8 as long), a rate divided by it. The
// reading as the clock gave it stays beside it as raw.<name>. A workload whose
// times are set by timers, not by the processor, keeps them as measured: only
// its set-up is scaled.
func atNominalSpeed(def workloadDef, m metricSet, speed float64) {
	m.set("machine.speed", speed)
	for _, d := range endToEnd {
		r, ok := m[d.name]
		if !ok || !d.scaled {
			continue
		}
		m["raw."+d.name] = r
		if def.timerBound && d.name != "setup_s" {
			continue
		}
		factor := speed
		if d.better == "higher" {
			factor = 1 / speed
		}
		r.v, r.iqr = r.v*factor, r.iqr*factor
		m[d.name] = r
	}
}
