package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"ndsm/internal/interact/pubsub"
	"ndsm/internal/obs"
)

// benchmarkJSON mirrors BENCHMARK.json in full, rejecting keys the contract
// does not list.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONDeclaresExactlyWhatTheProgramPrints(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if j := b.EndToEnd[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, the program declares %+v", i, j, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if j := b.PerLayer[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, the program declares %s %s %s", i, j, d.name, d.unit, d.better)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if j := b.Workloads[i]; j.Name != w.name || j.Why != w.why {
			t.Errorf("workloads[%d] = %+v, the program has %s: %s", i, j, w.name, w.why)
		}
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
}

func TestBenchmarkJSONKeepsTheContractsLimits(t *testing.T) {
	b := readBenchmarkJSON(t)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q: want a letter or digit, then at most 63 of letters, digits, _ . -", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range b.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || regexp.MustCompile(`[\r\n]`).MatchString(w.Why) {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	setup := false
	for _, m := range b.EndToEnd {
		name("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s in s, lower is better")
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range b.PerLayer {
		name("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1 to 60", b.RunSeconds)
	}
	if runs := 4 + 22*len(b.Workloads); float64(runs)*(float64(b.RunSeconds)+perRunOverheadSeconds) > 3420 {
		t.Errorf("%d runs of %d s (+%v s each to build-check, set up and warm up) do not fit the 3420 s cap", runs, b.RunSeconds, perRunOverheadSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want the one directory this package is in", b.Paths)
	}
	if len(b.Command) < 2 || b.Command[0] != "bash" || b.Command[1] != "benchmark/run.sh" {
		t.Errorf("command = %v", b.Command)
	}
}

// perRunOverheadSeconds is what a run takes beyond the seconds it measures on
// the seed: run.sh's up-to-date check, 31 set-ups, the warm-up, fifteen
// lead-ins and the drain and arithmetic after each window.
const perRunOverheadSeconds = 8.0

// syntheticPhases is a finished run made up without running a workload:
// every phase a world can return, traced, with the extras a workload adds.
func syntheticPhases() map[string]*phaseStats {
	phase := func() *phaseStats {
		seg := &segmentTable{tiled: 2, rttNs: 2000}
		for i := range seg.sumNs {
			seg.sumNs[i] = 250
		}
		return &phaseStats{
			windows: []windowStats{{n: 1000, attempted: 1000, completed: 990, failed: 2, shed: 8, seconds: 1, completedPerSec: 990, p50: 10, p90: 20,
				slices: []sliceStats{{seconds: 0.5, attempted: 500, completed: 495, cpuNs: 5e6, p50: 10}, {seconds: 0.5, attempted: 500, completed: 495, cpuNs: 5e6, p50: 10}}}},
			segments:  seg,
			extra:     map[string]float64{"pubsub.publish_ack_us": 30, "pubsub.delivery_spread_us": 9},
			attempted: 1000, failed: 2, shed: 8,
		}
	}
	return map[string]*phaseStats{"rtt": phase(), "capacity": phase(), "loaded": phase(), "bulk": phase()}
}

func TestEveryMetricNamePrintedIsDeclared(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range endToEnd {
		declared[d.name] = true
	}
	for _, d := range perLayer {
		if declared[d.name] {
			t.Errorf("%s is declared twice", d.name)
		}
		declared[d.name] = true
	}
	printed, attempted, failed := fromPhases(workloads[3], syntheticPhases())
	printed.merge(fromSegments(syntheticPhases()))
	for _, extra := range []string{
		"setup_s", "peak_rss_mb", // the run adds these itself
		"trace.overhead_share", "transport.sends", "transport.recvs", "endpoint.server_concurrency_peak", "budget.isolated_over_insitu",
	} {
		printed.set(extra, 1)
	}
	// A machine at four fifths of nominal speed. Overload keeps its times, set
	// by timers, as measured; the others are brought to nominal.
	const slow = 0.8
	scaled, _, _ := fromPhases(workloads[0], syntheticPhases())
	scaled.set("setup_s", 1)
	atNominalSpeed(workloads[0], scaled, slow)
	for name, want := range map[string][2]float64{"setup_s": {1, 0.8}, "capacity_rps": {990, 990 / 0.8}, "rtt_p50_us": {10, 8}, "cpu_us_per_req": {10, 8}} {
		if raw, got := scaled["raw."+name].v, scaled[name].v; math.Abs(raw-want[0]) > 1e-9 || math.Abs(got-want[1]) > 1e-9 {
			t.Errorf("%s: %v raw, %v at nominal speed, want %v", name, raw, got, want)
		}
	}
	atNominalSpeed(workloads[3], printed, slow)
	if raw, got := printed["raw.rtt_p50_us"].v, printed["rtt_p50_us"].v; raw != 10 || got != 10 {
		t.Errorf("overload rtt_p50_us: %v raw, %v at nominal speed, want it as measured, 10", raw, got)
	}
	if raw, got := printed["raw.setup_s"].v, printed["setup_s"].v; raw != 1 || got != 0.8 {
		t.Errorf("overload setup_s: %v raw, %v at nominal speed, want 1 and 0.8", raw, got)
	}
	// The counts the worlds keep, read off worlds that never ran.
	(&pubsubWorld{broker: &pubsub.Broker{}}).layerCounts(printed)
	(&overloadWorld{metrics: obs.NewRegistry()}).layerCounts(printed)
	for _, d := range isolatedDrives {
		printed.set(d.name, 1)
		if isolatedBenches[d.bench] == nil {
			t.Errorf("isolated metric %s names a drive, %q, that does not exist", d.name, d.bench)
		}
	}
	for name := range printed {
		if !declared[name] {
			t.Errorf("%s is printed but not declared", name)
		}
	}
	for name := range declared {
		if _, ok := printed[name]; !ok {
			t.Errorf("%s is declared but nothing prints it", name)
		}
	}
	// Overload: the flood is counted once, rtt plus the cut holding both lanes.
	if attempted != 2000 || failed != 4 {
		t.Errorf("attempted %d, failed %d, want 2000 and 4", attempted, failed)
	}
	if got := printed["fail_share"].v; got != 0.002 {
		t.Errorf("fail_share = %v, want the bulk lane's 2/1000", got)
	}
}

func TestSegmentMeansAddUpToTheRoundTripInTheMetrics(t *testing.T) {
	m := fromSegments(syntheticPhases())
	for _, suffix := range phaseSuffix {
		sum := 0.0
		for _, name := range segmentNames {
			sum += m[name+suffix].v
		}
		if rtt := m["trace.round_trip_us"+suffix].v; sum != rtt || rtt != 1 {
			t.Errorf("phase %q: segments sum to %v us, round trip %v us, want 1", suffix, sum, rtt)
		}
	}
}
