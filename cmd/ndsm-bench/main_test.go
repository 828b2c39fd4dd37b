package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ndsm/internal/experiments"
	"ndsm/internal/stats"
)

func TestBaselineFileIsValidJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	if err := realMain(cliOptions{quick: true, run: "F1,E1", baseline: path}); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("baseline not valid JSON: %v\n%s", err, data)
	}
	if b.Schema != baselineSchema || !b.Quick {
		t.Fatalf("baseline header = %+v", b)
	}
	if len(b.Experiments["F1"]) == 0 || len(b.Experiments["E1"]) == 0 {
		t.Fatalf("experiment metrics missing: %+v", b.Experiments)
	}
	if strings.Contains(string(data), `"benchmarks"`) {
		t.Fatalf("baseline still carries a benchmarks object:\n%s", data)
	}
}

func TestCompareSelfPasses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	if err := realMain(cliOptions{quick: true, run: "F1", baseline: path}); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	// File-vs-file self-compare: identical baselines cannot regress.
	if err := realMain(cliOptions{quick: true, compare: path, compareNew: path}); err != nil {
		t.Fatalf("self-compare failed: %v", err)
	}
}

func TestCompareToleratesSmallDrift(t *testing.T) {
	cell := func(v float64) *Baseline {
		return &Baseline{Schema: baselineSchema, Experiments: map[string]map[string]float64{"E1": {"t/r/c": v}}}
	}
	if regs, warns := compareBaselines(cell(10), cell(11), regressionTolerance); len(regs) != 0 || len(warns) != 0 {
		t.Fatalf("+10%% drift: regs=%v warns=%v, want neither", regs, warns)
	}
	// Drift past the tolerance warns and never fails.
	regs, warns := compareBaselines(cell(10), cell(30), regressionTolerance)
	if len(regs) != 0 || len(warns) != 1 {
		t.Fatalf("3x drift: regs=%v warns=%v, want one warning", regs, warns)
	}
}

func TestCompareGatesE13ControlMissRate(t *testing.T) {
	const e13Key = "E13: deadline miss rate vs offered load/lanes 2.0x/control miss %"
	old := &Baseline{Schema: baselineSchema}
	clean := &Baseline{
		Schema: baselineSchema,
		Experiments: map[string]map[string]float64{
			"E13": {e13Key: 0},
		},
	}
	if regs, _ := compareBaselines(old, clean, regressionTolerance); len(regs) != 0 {
		t.Fatalf("0%% control miss flagged: %v", regs)
	}
	// The gate is absolute: a new baseline missing control deadlines at 2x
	// overload fails regardless of what the old baseline recorded.
	broken := &Baseline{
		Schema: baselineSchema,
		Experiments: map[string]map[string]float64{
			"E13": {e13Key: 12.5},
		},
	}
	regs, _ := compareBaselines(old, broken, regressionTolerance)
	if len(regs) != 1 {
		t.Fatalf("12.5%% control miss at 2x overload passed the gate: %v", regs)
	}
}

// A gated cell that an experiment which ran no longer yields fails the
// compare: a renamed table title or row key must not retire its gate. An
// experiment the new baseline did not run is not judged.
func TestCompareFailsOnMissingGatedCell(t *testing.T) {
	old := &Baseline{Schema: baselineSchema}
	renamed := &Baseline{
		Schema: baselineSchema,
		Experiments: map[string]map[string]float64{
			"E13": {"E13: deadline miss rate vs offered load/lanes 2.0x (renamed)/control miss %": 0},
		},
	}
	regs, _ := compareBaselines(old, renamed, regressionTolerance)
	if len(regs) != len(experiments.Gates["E13"]) || !strings.Contains(regs[0], "missing") {
		t.Fatalf("E13 ran without its gated cell: regs=%v, want one missing-cell regression per gate", regs)
	}
	subset := &Baseline{Schema: baselineSchema, Experiments: map[string]map[string]float64{"F1": {"t/r/c": 1}}}
	if regs, _ := compareBaselines(old, subset, regressionTolerance); len(regs) != 0 {
		t.Fatalf("experiments that did not run were judged: %v", regs)
	}
}

func TestReadBaselineRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBaseline(bad); err == nil {
		t.Fatal("garbage baseline accepted")
	}
	wrongSchema := filepath.Join(dir, "schema.json")
	if err := os.WriteFile(wrongSchema, []byte(`{"schema":999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBaseline(wrongSchema); err == nil {
		t.Fatal("wrong-schema baseline accepted")
	}
	// Schema 2 keyed rows by their first cell alone: its keys do not line up.
	if err := os.WriteFile(wrongSchema, []byte(`{"schema":2,"benchmarks":{"x":{"nsPerOp":5}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBaseline(wrongSchema); err == nil || !strings.Contains(err.Error(), "re-record") {
		t.Fatalf("schema-2 baseline: err = %v, want a refusal that says to re-record", err)
	}
	if _, err := readBaseline(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

// Schema 3 files recorded while ndsm-bench still timed microbenchmarks carry
// a "benchmarks" object: they read with it ignored and compare clean against
// themselves.
func TestReadBaselineIgnoresBenchmarks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"schema":3,"quick":false,"environment":{"goVersion":"go1.24.0"},
		"experiments":{"E1":{"t/r/c":10}},
		"benchmarks":{"wire.binary.decode":{"nsPerOp":458,"allocsPerOp":9,"bytesPerOp":592}}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := readBaseline(path)
	if err != nil {
		t.Fatalf("schema-3 baseline with benchmarks refused: %v", err)
	}
	if b.Experiments["E1"]["t/r/c"] != 10 {
		t.Fatalf("experiments lost: %+v", b.Experiments)
	}
	if err := realMain(cliOptions{compare: path, compareNew: path}); err != nil {
		t.Fatalf("self-compare failed: %v", err)
	}
}

// Every numeric cell past a row's first must come out of flattenResult under
// a key of its own, and every declared gate must name a cell its experiment
// produces — a gate on a key no table yields can never fire.
func TestFlattenKeepsEveryCell(t *testing.T) {
	runner := experiments.Runner{QuickMode: true}
	for _, id := range experiments.IDs() {
		res, err := runner.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		cells, err := flattenResult(res)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		numeric := 0
		for _, tbl := range res.Tables {
			for _, row := range tbl.Rows {
				for i := 1; i < len(row) && i < len(tbl.Headers); i++ {
					if _, err := strconv.ParseFloat(row[i], 64); err == nil {
						numeric++
					}
				}
			}
		}
		if len(cells) != numeric {
			t.Errorf("%s: %d numeric cells, %d flattened keys", id, numeric, len(cells))
		}
		for _, g := range experiments.Gates[id] {
			if _, ok := cells[g.Cell]; !ok {
				t.Errorf("%s: gate on %q, which no table yields", id, g.Cell)
			}
		}
	}

	twice := stats.NewTable("t", "name", "kind", "v")
	twice.AddRow("a", "x", 1)
	twice.AddRow("a", "y", 2)
	if cells, err := flattenResult(experiments.Result{Tables: []*stats.Table{twice}}); err != nil || len(cells) != 2 {
		t.Fatalf("rows told apart by their second name cell: %v, %v", cells, err)
	}
	twice.AddRow("a", "x", 3)
	if _, err := flattenResult(experiments.Result{Tables: []*stats.Table{twice}}); err == nil {
		t.Fatal("two rows with one key flattened without error")
	}
}
