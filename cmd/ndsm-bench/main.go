// Command ndsm-bench runs the reproduction experiment suite (F1 and E1-E15
// from DESIGN.md) and prints one table per experiment — the data behind
// EXPERIMENTS.md. Request-path performance is not measured here: that is
// benchmark/ and BENCHMARK.json.
//
// Usage:
//
//	ndsm-bench                 # full suite
//	ndsm-bench -quick          # shrunken workloads (seconds)
//	ndsm-bench -run E6,E1      # selected experiments
//	ndsm-bench -list           # list experiment IDs
//	ndsm-bench -quick -trace out.json
//	                           # capture the run's causal spans as Chrome
//	                           # trace-event JSON (open in chrome://tracing
//	                           # or https://ui.perfetto.dev)
//	ndsm-bench -baseline BENCH.json
//	                           # machine-readable baseline: every numeric
//	                           # experiment cell + the environment it was
//	                           # recorded in
//	ndsm-bench -compare old.json
//	                           # rebuild the baseline and fail (exit 1) on an
//	                           # experiment past its absolute bound (E13-E15)
//	                           # or missing a gated cell; drift >15% against
//	                           # old.json only warns
//	ndsm-bench -compare old.json new.json
//	                           # compare two baseline files without running
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ndsm/internal/experiments"
	"ndsm/internal/trace"
)

// cliOptions is everything the flags select; realMain takes it whole so
// tests can drive the binary without re-parsing argv.
type cliOptions struct {
	quick      bool
	run        string
	list       bool
	traceFile  string
	baseline   string
	compare    string
	compareNew string
}

func main() {
	var opts cliOptions
	flag.BoolVar(&opts.quick, "quick", false, "run shrunken workloads")
	flag.StringVar(&opts.run, "run", "", "comma-separated experiment IDs (default all)")
	flag.BoolVar(&opts.list, "list", false, "list experiment IDs and exit")
	flag.StringVar(&opts.traceFile, "trace", "", "capture causal spans and write them as Chrome trace-event JSON to this file")
	flag.StringVar(&opts.baseline, "baseline", "", "write a machine-readable baseline (every experiment cell) to this file")
	flag.StringVar(&opts.compare, "compare", "", "compare against this baseline file; exit non-zero on an experiment past its absolute bound or missing a gated cell (experiment drift only warns)")
	flag.Parse()
	opts.compareNew = flag.Arg(0)
	if err := realMain(opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func realMain(opts cliOptions) error {
	if opts.list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return nil
	}
	// File-vs-file compare: judge two existing baselines without running
	// anything (what CI does against the committed seed).
	if opts.compare != "" && opts.compareNew != "" {
		oldB, err := readBaseline(opts.compare)
		if err != nil {
			return err
		}
		newB, err := readBaseline(opts.compareNew)
		if err != nil {
			return err
		}
		regressions, warnings := compareBaselines(oldB, newB, regressionTolerance)
		return reportComparison(os.Stdout, opts.compare, regressions, warnings)
	}
	if opts.baseline != "" || opts.compare != "" {
		built, err := buildBaseline(opts.quick, benchIDs(opts.run))
		if err != nil {
			return err
		}
		if opts.baseline != "" {
			if err := writeBaseline(opts.baseline, built); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "ndsm-bench: wrote baseline (%d experiments) to %s\n",
				len(built.Experiments), opts.baseline)
		}
		if opts.compare != "" {
			oldB, err := readBaseline(opts.compare)
			if err != nil {
				return err
			}
			regressions, warnings := compareBaselines(oldB, built, regressionTolerance)
			return reportComparison(os.Stdout, opts.compare, regressions, warnings)
		}
		return nil
	}
	runner := experiments.Runner{QuickMode: opts.quick}
	var collector *trace.Collector
	if opts.traceFile != "" {
		// One tracer, handed to the experiments, which hand it to every
		// component they build: radio hops, discovery, nodes and bindings,
		// interaction clients and servers, chaos worlds.
		collector = trace.NewCollector(1 << 18)
		runner.Tracer = trace.New(trace.Options{Name: "bench", Collector: collector})
	}
	if opts.run == "" {
		if err := runner.RunAll(os.Stdout); err != nil {
			return err
		}
	} else {
		for _, id := range strings.Split(opts.run, ",") {
			res, err := runner.Run(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			fmt.Print(experiments.Render(res))
		}
	}
	if collector != nil {
		if err := trace.WriteChromeFile(opts.traceFile, collector.Spans()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ndsm-bench: wrote %d spans (%d dropped) to %s\n",
			collector.Len(), collector.Dropped(), opts.traceFile)
	}
	return nil
}
