package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"ndsm/internal/experiments"
)

// baselineSchema versions the baseline file format. Schema 3 keys a row by
// every name cell, not the first alone, and records where the file was made;
// older files are refused, since their keys no longer line up.
const baselineSchema = 3

// regressionTolerance is how far an experiment cell may drift before the
// compare warns (fractional; 0.15 = 15%).
const regressionTolerance = 0.15

// Environment is where a baseline was made. The wall-clock cells of E7, E10
// and E13-E15 mean nothing without it.
type Environment struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numCPU"`
}

// Baseline is the machine-readable output of `-baseline`: every numeric cell
// of every experiment table. The compare gate fails only on the experiments'
// absolute bounds; the cells vary with hardware and workload sizing, so their
// drift is reported as warnings. A file that still carries the "benchmarks"
// object earlier versions wrote reads with that key ignored.
type Baseline struct {
	Schema int         `json:"schema"`
	Quick  bool        `json:"quick"`
	Env    Environment `json:"environment"`
	// Experiments maps experiment ID → "table/rowKey/column" → value.
	Experiments map[string]map[string]float64 `json:"experiments"`
}

// buildBaseline runs the selected experiments and assembles the baseline.
func buildBaseline(quick bool, ids []string) (*Baseline, error) {
	base := &Baseline{
		Schema: baselineSchema,
		Quick:  quick,
		Env: Environment{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
		Experiments: make(map[string]map[string]float64),
	}
	runner := experiments.Runner{QuickMode: quick}
	for _, id := range ids {
		res, err := runner.Run(id)
		if err != nil {
			return nil, fmt.Errorf("baseline: experiment %s: %w", id, err)
		}
		if base.Experiments[res.ID], err = flattenResult(res); err != nil {
			return nil, fmt.Errorf("baseline: experiment %s: %w", id, err)
		}
	}
	return base, nil
}

// flattenResult extracts every numeric cell of an experiment's tables, keyed
// "table/rowKey/column". The row key is the first cell plus the non-numeric
// cells that directly follow it: E1's rows are "nodes, organization,
// values…", and the first cell alone would name two rows. A cell reading
// "n/a" is a value that is absent, not a name, and ends the key. A textual
// result in that position (E5's delivered "20/20") joins the key too, so a
// change in it reads as cells missing and cells new, which warns. Two cells
// with one key are an error, so a table cannot silently lose a row.
func flattenResult(res experiments.Result) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, tbl := range res.Tables {
		for _, row := range tbl.Rows {
			if len(row) == 0 {
				continue
			}
			rowKey, i := row[0], 1
			for ; i < len(row) && !isValueCell(row[i]); i++ {
				rowKey += "/" + row[i]
			}
			for ; i < len(row) && i < len(tbl.Headers); i++ {
				v, err := strconv.ParseFloat(row[i], 64)
				if err != nil {
					continue
				}
				key := tbl.Title + "/" + rowKey + "/" + tbl.Headers[i]
				if _, dup := out[key]; dup {
					return nil, fmt.Errorf("two cells keyed %q", key)
				}
				out[key] = v
			}
		}
	}
	return out, nil
}

// isValueCell reports whether a cell holds a value, present or absent, and
// not a name.
func isValueCell(cell string) bool {
	_, err := strconv.ParseFloat(cell, 64)
	return err == nil || strings.HasPrefix(cell, "n/a")
}

// writeBaseline writes the baseline as indented JSON.
func writeBaseline(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readBaseline loads and validates a baseline file.
func readBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	if b.Schema != baselineSchema {
		return nil, fmt.Errorf("baseline %s: schema %d, tool reads %d: re-record it with -baseline",
			path, b.Schema, baselineSchema)
	}
	return &b, nil
}

// compareBaselines judges new against old. Gate failures are what no machine
// explains: the experiments' absolute bounds. Everything else — cell drift,
// added or dropped entries — comes back as warnings.
func compareBaselines(old, new *Baseline, tolerance float64) (regressions, warnings []string) {
	if old.Quick != new.Quick {
		warnings = append(warnings, fmt.Sprintf(
			"comparing quick=%v against quick=%v: experiment metrics are not like-for-like", new.Quick, old.Quick))
	}
	for _, id := range sortedKeys(old.Experiments) {
		prevCells := old.Experiments[id]
		curCells, ok := new.Experiments[id]
		if !ok {
			warnings = append(warnings, fmt.Sprintf("experiment %s missing from new baseline", id))
			continue
		}
		for _, key := range sortedKeys(prevCells) {
			prev := prevCells[key]
			cur, ok := curCells[key]
			if !ok {
				warnings = append(warnings, fmt.Sprintf("experiment %s cell %q missing from new baseline", id, key))
				continue
			}
			if prev != 0 && drift(prev, cur) > tolerance {
				warnings = append(warnings, fmt.Sprintf(
					"experiment %s cell %q drifted: %v vs %v baseline", id, key, cur, prev))
			}
		}
	}
	// The experiments' own contracts gate absolutely, not by drift: a bound
	// a new baseline exceeds is broken whatever the old one measured, and a
	// gated cell an experiment that ran no longer yields is a gate nobody
	// holds (a renamed table or row). Experiments the new baseline did not
	// run are skipped, so -run subsets compare. Each experiment declares its
	// gates beside the table that feeds them.
	for _, id := range sortedKeys(experiments.Gates) {
		cells, ok := new.Experiments[id]
		if !ok {
			continue
		}
		for _, g := range experiments.Gates[id] {
			v, ok := cells[g.Cell]
			switch {
			case !ok:
				regressions = append(regressions, fmt.Sprintf(
					"experiment %s: gated cell %q missing (%s)", id, g.Cell, g.What))
			case v > g.Max:
				regressions = append(regressions, fmt.Sprintf(
					"experiment %s: %s %.2f exceeds the %.0f gate (%q)", id, g.What, v, g.Max, g.Cell))
			}
		}
	}
	return regressions, warnings
}

func drift(prev, cur float64) float64 {
	d := (cur - prev) / prev
	if d < 0 {
		d = -d
	}
	return d
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// errRegression distinguishes a failed compare gate from an operational
// error, so main can exit non-zero with the report already printed.
type errRegression struct{ count int }

func (e errRegression) Error() string {
	return fmt.Sprintf("ndsm-bench: %d gate failure(s): an experiment past its absolute bound (cell drift only warns)", e.count)
}

// reportComparison prints the verdict and returns errRegression when the
// gate fails.
func reportComparison(w *os.File, oldPath string, regressions, warnings []string) error {
	for _, msg := range warnings {
		fmt.Fprintf(w, "warning: %s\n", msg)
	}
	for _, msg := range regressions {
		fmt.Fprintf(w, "REGRESSION: %s\n", msg)
	}
	if len(regressions) > 0 {
		return errRegression{count: len(regressions)}
	}
	fmt.Fprintf(w, "ndsm-bench: no regressions against %s (%d warning(s))\n", oldPath, len(warnings))
	return nil
}

// benchIDs resolves the -run selection for baseline building (default all).
func benchIDs(run string) []string {
	if run == "" {
		return experiments.IDs()
	}
	var out []string
	for _, id := range strings.Split(run, ",") {
		if id = strings.TrimSpace(id); id != "" {
			out = append(out, id)
		}
	}
	return out
}
