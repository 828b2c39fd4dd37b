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

// benchSink defeats dead-code elimination in the stub benchmark.
var benchSink int

// fastSuite swaps the real microbenchmark suite for a near-instant stub so
// the baseline machinery can be tested in milliseconds. The stub must still
// cost a measurable >=1 ns/op, or regression math has no reference.
func fastSuite(t *testing.T) {
	t.Helper()
	saved := microbenches
	microbenches = []microbench{
		{"stub.fast", func(b *testing.B) {
			x := 0
			for i := 0; i < b.N; i++ {
				for j := 0; j < 64; j++ {
					x += j ^ i
				}
			}
			benchSink = x
		}},
	}
	t.Cleanup(func() { microbenches = saved })
}

func TestBaselineFileIsValidJSON(t *testing.T) {
	fastSuite(t)
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
	if b.Benchmarks["stub.fast"].NsPerOp <= 0 {
		t.Fatalf("benchmark ns/op missing: %+v", b.Benchmarks)
	}
}

func TestCompareSelfPasses(t *testing.T) {
	fastSuite(t)
	path := filepath.Join(t.TempDir(), "b.json")
	if err := realMain(cliOptions{quick: true, run: "F1", baseline: path}); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	// File-vs-file self-compare: identical baselines cannot regress.
	if err := realMain(cliOptions{quick: true, compare: path, compareNew: path}); err != nil {
		t.Fatalf("self-compare failed: %v", err)
	}
}

func TestCompareFailsOnRegression(t *testing.T) {
	fastSuite(t)
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	if err := realMain(cliOptions{quick: true, run: "F1", baseline: oldPath}); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	old, err := readBaseline(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	// Doctor a slowdown into the new baseline, allocations equal: time is
	// the machine's as much as the code's, so it warns and exits 0.
	doctored := *old
	doctored.Env.NumCPU = 1 + old.Env.NumCPU
	doctored.Benchmarks = map[string]BenchResult{}
	for name, r := range old.Benchmarks {
		r.NsPerOp *= 1.2
		doctored.Benchmarks[name] = r
	}
	newPath := filepath.Join(dir, "new.json")
	if err := writeBaseline(newPath, &doctored); err != nil {
		t.Fatal(err)
	}
	if err := realMain(cliOptions{quick: true, compare: oldPath, compareNew: newPath}); err != nil {
		t.Fatalf("+20%% ns/op with equal allocs failed the compare: %v", err)
	}
	regs, warns := compareBaselines(old, &doctored, regressionTolerance)
	if len(regs) != 0 || len(warns) != 2 {
		t.Fatalf("+20%% ns/op: regs=%v warns=%v, want the drift and the environments as warnings", regs, warns)
	}
	if !strings.Contains(warns[1], old.Env.String()) || !strings.Contains(warns[1], doctored.Env.String()) {
		t.Fatalf("warning does not name both environments: %q", warns[1])
	}
	// The same file with an allocation the old one did not make fails.
	for name, r := range doctored.Benchmarks {
		r.AllocsPerOp++
		doctored.Benchmarks[name] = r
	}
	if err := writeBaseline(newPath, &doctored); err != nil {
		t.Fatal(err)
	}
	err = realMain(cliOptions{quick: true, compare: oldPath, compareNew: newPath})
	if _, ok := err.(errRegression); !ok {
		t.Fatalf("0->1 allocs/op: compare returned %T (%v), want errRegression", err, err)
	}
	// The reverse direction — new is faster and allocates less — must pass.
	if err := realMain(cliOptions{quick: true, compare: newPath, compareNew: oldPath}); err != nil {
		t.Fatalf("speedup flagged as regression: %v", err)
	}
}

func TestCompareToleratesSmallDrift(t *testing.T) {
	old := &Baseline{
		Schema:     baselineSchema,
		Benchmarks: map[string]BenchResult{"x": {NsPerOp: 100}},
		Experiments: map[string]map[string]float64{
			"E1": {"t/r/c": 10},
		},
	}
	within := &Baseline{
		Schema:     baselineSchema,
		Benchmarks: map[string]BenchResult{"x": {NsPerOp: 110}}, // +10% < 15%
		Experiments: map[string]map[string]float64{
			"E1": {"t/r/c": 30}, // experiment drift warns, never fails
		},
	}
	regs, warns := compareBaselines(old, within, regressionTolerance)
	if len(regs) != 0 {
		t.Fatalf("within-tolerance drift flagged: %v", regs)
	}
	if len(warns) == 0 {
		t.Fatal("experiment drift produced no warning")
	}

	over := &Baseline{
		Schema:     baselineSchema,
		Benchmarks: map[string]BenchResult{"x": {NsPerOp: 120}}, // +20% > 15%
	}
	regs, warns = compareBaselines(old, over, regressionTolerance)
	if len(regs) != 0 || len(warns) < 2 {
		t.Fatalf("+20%% ns/op must warn, not fail: regs=%v warns=%v", regs, warns)
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

func TestCompareFailsOnAllocRegression(t *testing.T) {
	old := &Baseline{
		Schema: baselineSchema,
		Benchmarks: map[string]BenchResult{
			"zero": {NsPerOp: 100, AllocsPerOp: 0},
			"some": {NsPerOp: 100, AllocsPerOp: 10},
		},
	}
	// A zero-alloc path growing a single allocation must fail the gate.
	grew := &Baseline{
		Schema: baselineSchema,
		Benchmarks: map[string]BenchResult{
			"zero": {NsPerOp: 100, AllocsPerOp: 1},
			"some": {NsPerOp: 100, AllocsPerOp: 10},
		},
	}
	regs, _ := compareBaselines(old, grew, regressionTolerance)
	if len(regs) != 1 {
		t.Fatalf("0->1 allocs not flagged: %v", regs)
	}
	// +1 alloc on a 10-alloc budget is within tolerance+slack; +3 is not.
	within := &Baseline{
		Schema:     baselineSchema,
		Benchmarks: map[string]BenchResult{"zero": {NsPerOp: 100}, "some": {NsPerOp: 100, AllocsPerOp: 11}},
	}
	if regs, _ := compareBaselines(old, within, regressionTolerance); len(regs) != 0 {
		t.Fatalf("within-slack alloc growth flagged: %v", regs)
	}
	over := &Baseline{
		Schema:     baselineSchema,
		Benchmarks: map[string]BenchResult{"zero": {NsPerOp: 100}, "some": {NsPerOp: 100, AllocsPerOp: 13}},
	}
	if regs, _ := compareBaselines(old, over, regressionTolerance); len(regs) != 1 {
		t.Fatalf("+3 allocs on 10 not flagged: %v", regs)
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
