package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// printPhase prints one phase window by window, lateness beside latency.
func printPhase(p *phaseStats) {
	kind := "closed loop"
	if p.spec.paced {
		kind = fmt.Sprintf("paced at %.0f/s", p.spec.rate)
	}
	fmt.Printf("phase %-8s %d x %.2f s, %s\n", p.spec.name, len(p.windows), p.spec.window.Seconds(), kind)
	fmt.Printf("  %2s %8s %9s %9s %9s %9s %10s %8s %8s %9s %9s %8s %9s  %s\n",
		"w", "n", "p50_us", "p90_us", "p99_us", "p99.9_us", "ok/s", "cpu_us", "allocs", "late_p50", "late_p99", "achieved", "inflight", "")
	for i, w := range p.windows {
		fmt.Printf("  %2d %8d %9.1f %9.1f %9.1f %9.1f %10.0f %8.2f %8.2f %9.1f %9.1f %8.3f %4d>%-4d  %s\n",
			i, w.n, w.p50, w.p90, w.p99, w.p999, w.completedPerSec, w.cpuUsPerReq, w.allocsPerReq,
			w.lateP50, w.lateP99, w.achievedShare, w.inflightStart, w.inflightEnd, w.invalid)
	}
	if p.failed+p.shed > 0 {
		fmt.Printf("  attempted %d, failed %d, shed %d, missed deadline %d\n", p.attempted, p.failed, p.shed, p.missed)
	}
}

// printMetrics prints the declared metrics that were measured: value, unit,
// and for windowed ones the spread over the windows and the samples behind
// the median.
func printMetrics(title string, m metricSet, decls []metricDecl) {
	fmt.Printf("%s:\n", title)
	for _, d := range decls {
		r, ok := m[d.name]
		if !ok {
			continue
		}
		fmt.Printf("  %-36s %14.4f %-6s", d.name, r.v, d.unit)
		if r.windows > 0 {
			over := "windows"
			if r.slices {
				over = "slices"
			}
			fmt.Printf(" IQR %.4f over %d %s", r.iqr, r.windows, over)
			if r.samples > 0 {
				fmt.Printf(", ~%d samples each", r.samples)
			}
		}
		fmt.Println()
	}
}

// printSegments prints the segment table of each traced phase: mean µs per
// request and share of the round trip, and the sum against the round trip
// measured directly.
func printSegments(phases phases) {
	for _, name := range []string{"rtt", "capacity", "loaded"} {
		p := phases[name]
		if p == nil || p.segments == nil || p.segments.tiled == 0 {
			continue
		}
		s := p.segments
		fmt.Printf("segments, %s phase: %d requests tiled, %d excluded\n", name, s.tiled, s.excluded)
		sum := 0.0
		for i, seg := range segmentNames {
			sum += s.meanUs(i)
			fmt.Printf("  %-28s %10.3f us %6.1f %%\n", seg, s.meanUs(i), 100*s.meanUs(i)/s.rttUs())
		}
		fmt.Printf("  %-28s %10.3f us   (round trip measured: %.3f us)\n", "sum", sum, s.rttUs())
	}
}

// childRun runs one workload in a process of its own, as the acceptance
// driver does, so that no run inherits another's heap or peak memory. It
// passes the child's report through and returns its JSON line.
func childRun(workload string, seed int64, seconds float64, trace int, echo io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self,
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64),
		"--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, echo)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s: %w", workload, err)
	}
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return res, nil
}

// runEvery runs every workload in turn and fails if any was not correct.
func runEvery(o options) error {
	began := time.Now()
	bad := 0
	for _, def := range workloads {
		res, err := childRun(def.name, o.seed, o.seconds, o.trace, os.Stdout)
		if err != nil {
			return err
		}
		if !res.Correct {
			bad++
		}
		fmt.Println()
	}
	fmt.Printf("total wall time %.1f s for %d workloads\n", time.Since(began).Seconds(), len(workloads))
	if bad > 0 {
		return fmt.Errorf("%d workloads failed an output check", bad)
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json the repeat check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBounds() (benchmarkFile, error) {
	var f benchmarkFile
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return f, err
		}
		return f, json.Unmarshal(data, &f)
	}
	return f, errors.New("BENCHMARK.json not found here or one directory up")
}

// repeatCheck runs the end-to-end set twice with the same code and holds the
// two against each other the way the acceptance driver does: per workload and
// metric, the second median may not be worse than the first by more than the
// bound, and (with several runs per set) the spread of each set, its
// interquartile range over its median, must stay within the bound too.
func repeatCheck(o options) error {
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	began := time.Now()
	// values[set][workload][metric] is one value per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, def := range workloads {
			values[set][def.name] = map[string][]float64{}
			for run := 0; run < o.runs; run++ {
				res, err := childRun(def.name, o.seed+int64(run), o.seconds, 0, io.Discard)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s, set %d, run %d failed an output check; run it alone to see which", def.name, set+1, run)
				}
				for name, v := range res.Metrics {
					values[set][def.name][name] = append(values[set][def.name][name], v.Value)
				}
				line, _ := json.Marshal(res.Metrics) // a map of numbers and strings cannot fail to marshal
				fmt.Fprintf(os.Stderr, "set %d %s seed %d (%.0f s so far): %d of %d failed %s\n",
					set+1, def.name, o.seed+int64(run), time.Since(began).Seconds(), res.Failed, res.Attempted, line)
			}
		}
	}
	excess := 0
	fmt.Printf("| workload | metric | first median | second median | worse by | spread 1 | spread 2 | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, def := range workloads {
		for _, b := range bounds.EndToEnd {
			first, second := values[0][def.name][b.Name], values[1][def.name][b.Name]
			_, m1, _ := quartiles(first)
			_, m2, _ := quartiles(second)
			worse := (m2 - m1) / m1
			if b.Better == "higher" {
				worse = (m1 - m2) / m1
			}
			s1, s2 := relSpread(first), relSpread(second)
			verdict := "ok"
			if worse > b.Bound || (b.Name != "setup_s" && (s1 > b.Bound || s2 > b.Bound)) {
				verdict = "EXCESS"
				excess++
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.1f %% | %.1f %% | %.1f %% | %.0f %% | %s |\n",
				def.name, b.Name, m1, m2, 100*worse, 100*s1, 100*s2, 100*b.Bound, verdict)
		}
	}
	fmt.Printf("\ntotal wall time %.1f s for 2 sets x %d workloads x %d runs\n", time.Since(began).Seconds(), len(workloads), o.runs)
	if excess > 0 {
		return fmt.Errorf("%d workload x metric pairs exceed their bound", excess)
	}
	return nil
}
