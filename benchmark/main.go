// Command benchmark is the repository's load benchmark: four workloads that
// drive the public functions of core, endpoint, interact/pubsub, transport
// and wire from outside, an end-to-end run that reports what a user of the
// middleware would see, and a traced run that explains it layer by layer.
//
// Run it from the repository root through benchmark/run.sh:
//
//	bash benchmark/run.sh                                  every workload, end to end
//	bash benchmark/run.sh --trace 1                        every workload, traced
//	bash benchmark/run.sh --workload rpc_small_tcp --seed 7 --seconds 25 --trace 0
//	bash benchmark/run.sh --repeat-check [--runs 10]       two sets of runs, held to BENCHMARK.json's bounds
//
// With --workload the last line of standard output is one JSON object, the
// form the acceptance driver reads. README.md beside this file says what each
// workload is for and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const defaultSeconds = 25

// setupsPerRound is how many worlds a run builds and tears down before each
// round only to time them. With the build of the world it measures on that
// makes 31 set-ups spread over the run, and setup_s is their median.
const setupsPerRound = 6

var workloads = []workloadDef{
	{
		name:    "rpc_small_tcp",
		why:     "64 B echo through core.Binding on TCP loopback: per-message cost (decode, dispatch, obs, reqlog) is all the work and byte copies none",
		payload: smallPayload,
		rate:    40000,
		choice:  "0.3 x the seed's closed-loop capacity on one processor; pinned on two, where 60k stalled one window in five into a 30k backlog, and kept",
		build:   buildRPC, streams: conns, copies: 1,
	},
	{
		name:    "rpc_large_tcp",
		why:     "16 KiB echo on the same path: CRC, copies, buffer growth and socket writes dominate, per-message overhead is under a third",
		payload: largePayload,
		rate:    8000,
		choice:  "0.22 x the seed's closed-loop capacity on one processor; pinned on two, where at 13k loaded_p50_us ranged 560-920 us and at 19k the backlog grew to 15 s, and kept",
		build:   buildRPC, streams: conns, copies: 1,
	},
	{
		name:    "pubsub_fanout_tcp",
		why:     "one-way fan-out to 4 subscribers through interact/pubsub's own framing and demux loop: endpoint does nothing here today",
		payload: smallPayload,
		rate:    6000,
		choice:  "publishes per second, 0.16 x the seed's closed-loop 37k events/s on one processor; pinned on two, where 10k ran into 0.6 s backlogs whenever the box slowed, and kept",
		build:   buildPubsub, streams: conns, copies: subscribers, relay: true,
	},
	{
		name:    "overload_lanes_mem",
		why:     "a 16-slot, 2 ms server on mem flooded at 2x capacity beside a 1 kHz control loop: the admitter does the work, wire and transport little",
		payload: smallPayload,
		rate:    offered(),
		choice:  "not chosen: 2 x the server's nominal capacity on the bulk lane plus one control call per tick",
		build:   buildOverload, streams: func() int { return 2 }, copies: 1, timerBound: true,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// options are the command line.
type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       int
	traceOut    string
	repeatCheck bool
	runs        int
	rate        float64
}

// pinnedCPU is the processor the process is confined to, or -1 if it could
// not be confined and runs wherever the kernel puts it.
var pinnedCPU = -1

func main() {
	var err error
	if pinnedCPU, err = pinToOneCPU(); err != nil {
		// The numbers of an unpinned run are not comparable with a pinned
		// one's; the environment line of every report says which it was.
		fmt.Fprintln(os.Stderr, "benchmark: running unpinned:", err)
		pinnedCPU = -1
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the driver's JSON line (default: every workload in turn)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for payload bytes, topic sequence and decoy descriptions")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "seconds of measurement per run")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run (per-layer metrics); 0: the end-to-end run")
	flag.StringVar(&o.traceOut, "trace-out", "", "where the traced run writes its Chrome trace (default .bench_build/spans-<workload>.json)")
	flag.BoolVar(&o.repeatCheck, "repeat-check", false, "run the end-to-end set twice and hold the difference to BENCHMARK.json's bounds")
	flag.IntVar(&o.runs, "runs", 1, "with --repeat-check: runs per set, each on its own seed; their median is compared")
	flag.Float64Var(&o.rate, "rate", 0, "override the workload's pinned loaded-phase rate, to re-pin it on another machine (with --workload)")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) || o.runs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case o.repeatCheck:
		err = repeatCheck(o)
	case o.workload == "":
		err = runEvery(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result is the driver's last line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcomeOfRun is everything one run of one workload found.
type outcomeOfRun struct {
	metrics   metricSet
	attempted int
	failed    int
	problems  []string // output checks that failed: the run is not correct
	flags     []string // tolerated oddities, printed
}

// runOne runs one workload in this process and prints its report and the
// driver's JSON line.
func runOne(o options) error {
	def, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.rate > 0 {
		def.rate = o.rate
	}
	began := time.Now()
	printEnvironment(o)
	fmt.Printf("workload %s: %d B payload, %d connections, loaded phase at %.0f/s (%s)\n", def.name, def.payload, def.streams(), def.rate, def.choice)
	var run outcomeOfRun
	var err error
	declared := endToEnd
	if o.trace == 1 {
		declared = perLayer
		run, err = tracedRun(def, o)
	} else {
		run, err = endToEndRun(def, o)
	}
	if err != nil {
		return err
	}
	fmt.Printf("\n%s: %s run, seed %d, wall time %.1f s\n", def.name, map[int]string{0: "end-to-end", 1: "traced"}[o.trace], o.seed, time.Since(began).Seconds())
	printMetrics("declared metrics (the JSON line below)", run.metrics, declared)
	if o.trace == 0 {
		printMetrics("printed with every run, ungated", run.metrics, ungatedBeside)
	}
	for _, f := range run.flags {
		fmt.Println("flag:", f)
	}
	for _, p := range run.problems {
		fmt.Println("FAILED CHECK:", p)
	}
	res := result{Correct: len(run.problems) == 0, Attempted: run.attempted, Failed: run.failed, Metrics: map[string]valueUnit{}}
	for _, d := range declared {
		r, measured := run.metrics[d.name]
		if !measured && o.trace == 0 {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = valueUnit{Value: r.v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// ungatedBeside are the per-layer metrics that need no tracer and are printed
// beside the end-to-end ones in every run.
var ungatedBeside = func() []metricDecl {
	var out []metricDecl
	for _, d := range perLayer {
		for _, prefix := range []string{"machine.", "raw.", "rtt_p90_us", "loaded_p50_us", "loaded_p90_us", "tail.", "loadgen.", "runtime.", "fail_share", "control_", "bulk_", "endpoint.inflight_peak"} {
			if strings.HasPrefix(d.name, prefix) {
				out = append(out, d)
			}
		}
	}
	return out
}()

// build times one set-up of the workload's world.
func build(def workloadDef, seed int64, tr *tracer) (world, float64, error) {
	t0 := time.Now()
	w, err := def.build(def, seed, tr)
	return w, time.Since(t0).Seconds(), err
}

// judgePhases applies the run-level validity rule. Every metric is a median
// over a phase's windows, so it stands as long as most of them are clean: an
// invalid window is flagged, and the run fails once a phase has more invalid
// windows than valid ones. (This box freezes the whole process for 100 to 300
// ms a few times a minute, generator included; "two invalid windows fail the
// run" would fail one run in five on that alone.)
func judgePhases(phases phases, run *outcomeOfRun) {
	for _, name := range sortedKeys(phases) {
		p := phases[name]
		printPhase(p)
		for i, w := range p.windows {
			if w.invalid != "" {
				run.flags = append(run.flags, fmt.Sprintf("%s window %d invalid: %s", name, i, w.invalid))
			}
		}
		if n := p.invalidWindows(); 2*n > len(p.windows) && len(p.windows) > 1 {
			run.problems = append(run.problems, fmt.Sprintf("%d of %d windows invalid in the %s phase", n, len(p.windows), name))
		}
	}
}

// endToEndRun is the untraced run: set up, warm up, then five rounds of one
// window per phase, with more set-ups timed between the rounds; check the
// outputs.
func endToEndRun(def workloadDef, o options) (outcomeOfRun, error) {
	var run outcomeOfRun
	w, took, err := build(def, o.seed, nil)
	if err != nil {
		return run, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()
	ref, err := newReference(conns(), def.payload)
	if err != nil {
		return run, err
	}
	defer ref.close()
	setups := []float64{took}
	p := planFor(o.seconds, fullRounds)
	w.warm(p)
	readings := machine{ref: ref, each: p.reference}
	measured := phases{}
	for round := 0; round < p.rounds; round++ {
		for i := 0; i < setupsPerRound; i++ {
			extra, took, err := build(def, o.seed, nil)
			if err != nil {
				return run, fmt.Errorf("set-up before round %d: %w", round, err)
			}
			extra.close()
			setups = append(setups, took)
		}
		w.round(p, measured, readings.read)
	}
	if readings.read(); readings.err != nil {
		return run, readings.err
	}
	judgePhases(measured, &run)
	run.problems = append(run.problems, w.verify()...)
	run.metrics, run.attempted, run.failed = fromPhases(def, measured)
	w.layerCounts(run.metrics)
	q1, q2, q3 := quartiles(setups)
	run.metrics["setup_s"] = reading{v: q2, iqr: q3 - q1, windows: len(setups)}
	run.metrics.set("peak_rss_mb", peakRSSMB())
	atNominalSpeed(def, run.metrics, readings.speed())
	return run, nil
}

// tracedRun is the per-layer run: an untraced round (one window per phase),
// the same round again on a world built with the tracer in it, and the
// isolated drives.
func tracedRun(def workloadDef, o options) (outcomeOfRun, error) {
	var run outcomeOfRun
	p := planFor(o.seconds, 1)

	ref, err := newReference(conns(), def.payload)
	if err != nil {
		return run, err
	}
	defer ref.close()
	plain, took, err := build(def, o.seed, nil)
	if err != nil {
		return run, fmt.Errorf("set-up: %w", err)
	}
	plain.warm(p)
	readings := machine{ref: ref, each: p.reference}
	fmt.Println("untraced pass:")
	untraced := phases{}
	plain.round(p, untraced, readings.read)
	if readings.read(); readings.err != nil {
		return run, readings.err
	}
	judgePhases(untraced, &run)
	run.problems = append(run.problems, plain.verify()...)
	run.metrics, run.attempted, run.failed = fromPhases(def, untraced)
	run.metrics.set("setup_s", took)
	plain.layerCounts(run.metrics)
	plain.close()
	atNominalSpeed(def, run.metrics, readings.speed())

	// Room for every request one connection can issue in its busiest window.
	perStream := int(closedPerStream * (leadIn + p.capacity).Seconds())
	tr := newTracer(0, def.streams(), perStream, def.copies)
	tr.relay = def.relay
	stamped, _, err := build(def, o.seed, tr)
	if err != nil {
		return run, fmt.Errorf("traced set-up: %w", err)
	}
	stamped.warm(p)
	tr.reset()
	fmt.Println("traced pass:")
	traced := phases{}
	stamped.round(p, traced, func() {})
	var flags outcomeOfRun
	judgePhases(traced, &flags)
	run.flags = append(run.flags, flags.flags...)
	run.problems = append(run.problems, stamped.verify()...)
	stamped.close()
	run.metrics.merge(fromSegments(traced))
	tracedMetrics, _, _ := fromPhases(def, traced)
	if base := run.metrics["capacity_rps"].v; base > 0 {
		run.metrics.set("trace.overhead_share", 1-tracedMetrics["capacity_rps"].v/base)
	}
	run.metrics.set("transport.sends", float64(tr.sends.Load()))
	run.metrics.set("transport.recvs", float64(tr.recvs.Load()))
	run.metrics.set("endpoint.server_concurrency_peak", float64(tr.handlersPeak.Load()))
	printSegments(traced)

	isolated, err := runIsolated()
	if err != nil {
		return run, err
	}
	run.metrics.merge(isolated)
	if rtt := run.metrics["trace.round_trip_us"].v; rtt > 0 && def.name == "rpc_small_tcp" {
		// Both bare TCP hops (wire included) plus what core and endpoint add on
		// mem over two bare mem hops, against the round trip measured in place.
		sum := 2*isolated["transport.tcp_hop_ns.small"].v + isolated["core.request_mem_ns"].v - 2*isolated["transport.mem_hop_ns"].v
		run.metrics.set("budget.isolated_over_insitu", sum/1e3/rtt)
	}

	out := o.traceOut
	if out == "" {
		out = filepath.Join(".bench_build", "spans-"+def.name+".json")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return run, err
	}
	var events []chromeEvent
	for pid, name := range []string{"rtt", "capacity", "loaded"} {
		if ph := traced[name]; ph != nil && ph.segments != nil {
			events = append(events, chromeEvents(name, pid+1, ph.segments.spans)...)
		}
	}
	if err := writeChromeTrace(out, events); err != nil {
		return run, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("chrome trace: %s (%d spans)\n", out, len(events))
	return run, nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

func sortedKeys(m phases) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// commit is the repository revision the binary was built from; run.sh sets it
// at link time when the checkout is a git repository.
var commit = "unknown"

// printEnvironment states where and on what the numbers were taken.
func printEnvironment(o options) {
	var uts syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&uts) == nil {
		b := make([]byte, 0, len(uts.Release))
		for _, c := range uts.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	pinned := "not pinned"
	if pinnedCPU >= 0 {
		pinned = fmt.Sprintf("pinned to processor %d", pinnedCPU)
	}
	fmt.Printf("environment: commit %s, %s, %s, GOMAXPROCS %d, nproc %d, kernel %s, seed %d, %.0f s measured\n",
		commit, runtime.Version(), pinned, runtime.GOMAXPROCS(0), runtime.NumCPU(), kernel, o.seed, o.seconds)
	fmt.Println("environment: loopback, in-process client+server on one processor; no traffic crosses a real link")
}
