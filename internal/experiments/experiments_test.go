package experiments

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// cell fetches a table cell by row/column index.
func cell(t *testing.T, res Result, table, row, col int) string {
	t.Helper()
	if table >= len(res.Tables) {
		t.Fatalf("%s: table %d missing", res.ID, table)
	}
	rows := res.Tables[table].Rows
	if row >= len(rows) || col >= len(rows[row]) {
		t.Fatalf("%s: cell (%d,%d) missing in %d rows", res.ID, row, col, len(rows))
	}
	return rows[row][col]
}

func cellFloat(t *testing.T, res Result, table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, res, table, row, col), 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", res.ID, row, col, cell(t, res, table, row, col))
	}
	return v
}

// quickResults holds TestRunnerQuickAll's run of every experiment, so each
// shape test below reads its experiment's quick run instead of running it
// again. TestRunnerQuickAll comes first in the file and refreshes the map on
// every pass of -count; a shape test run without it runs its experiment.
var quickResults = map[string]Result{}

// quickRun returns experiment id's quick run.
func quickRun(t *testing.T, id string) Result {
	t.Helper()
	if res, ok := quickResults[id]; ok {
		return res
	}
	res, err := Runner{QuickMode: true}.Run(id)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunnerQuickAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	clear(quickResults)
	for _, id := range IDs() {
		res, err := Runner{QuickMode: true}.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(Render(res), "=== "+id+":") {
			t.Fatalf("output missing %s", id)
		}
		quickResults[id] = res
	}
}

// RunAll renders every experiment in order and keeps going past a failure.
// It runs stand-ins here: TestRunnerQuickAll has run the real ones.
func TestRunAllKeepsGoing(t *testing.T) {
	saved := experimentList
	defer func() { experimentList = saved }()
	experimentList = []experiment{
		{"A", func(bool) (Result, error) { return Result{}, errors.New("broken") }},
		{"B", func(bool) (Result, error) { return Result{ID: "B", Title: "b"}, nil }},
	}
	var sb strings.Builder
	err := (Runner{QuickMode: true}).RunAll(&sb)
	if err == nil || !strings.Contains(sb.String(), "!! A failed: broken") || !strings.Contains(sb.String(), "=== B: b ===") {
		t.Fatalf("RunAll: err=%v\n%s", err, sb.String())
	}
}

func TestF1(t *testing.T) {
	res := quickRun(t, "F1")
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 13 {
		t.Fatalf("F1 shape wrong: %+v", res)
	}
	if !strings.Contains(res.Chart, "1993") {
		t.Fatal("chart missing onset year")
	}
}

func TestE1Shape(t *testing.T) {
	res := quickRun(t, "E1")
	rows := res.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Every configuration found the service.
	for i := range rows {
		if cell(t, res, 0, i, 4) != "true" {
			t.Fatalf("row %d did not find the service: %v", i, rows[i])
		}
	}
	// Flood cost grows with N; and at each N flooding costs more radio
	// messages than the centralized lookup.
	flood9 := cellFloat(t, res, 0, 0, 2)
	central9 := cellFloat(t, res, 0, 1, 2)
	flood16 := cellFloat(t, res, 0, 2, 2)
	if flood16 <= flood9 {
		t.Fatalf("flood cost not growing: %v -> %v", flood9, flood16)
	}
	if flood9 <= central9 {
		t.Fatalf("flooding (%v) should cost more than centralized (%v)", flood9, central9)
	}
	// The cluster lookup-path sweep: one row per cluster size, and at every
	// size the cached path must beat the wire quorum path by >=10x at p50 —
	// the acceptance bar for the client lease cache.
	cl := res.Tables[1]
	if len(cl.Rows) != 3 {
		t.Fatalf("cluster table rows = %d", len(cl.Rows))
	}
	for i := range cl.Rows {
		if speedup := cellFloat(t, res, 1, i, 3); speedup < 10 {
			t.Errorf("cluster row %d: cached lookup only %.1fx faster than wire, want >=10x", i, speedup)
		}
		if hit := cellFloat(t, res, 1, i, 4); hit < 99 {
			t.Errorf("cluster row %d: cache hit rate %.1f%%, want ~100%%", i, hit)
		}
	}
}

func TestE2Shape(t *testing.T) {
	res := quickRun(t, "E2")
	rows := res.Tables[0].Rows
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if cell(t, res, 0, 0, 3) != "central" {
		t.Fatalf("dense+up chose %s", cell(t, res, 0, 0, 3))
	}
	if cell(t, res, 0, 1, 3) != "flood" {
		t.Fatalf("sparse chose %s", cell(t, res, 0, 1, 3))
	}
	if cell(t, res, 0, 2, 3) != "flood" {
		t.Fatalf("registry-down chose %s", cell(t, res, 0, 2, 3))
	}
	// Cluster rows: a 1-member cluster with its member down degrades to
	// flooding like the classic dead registry; 3 and 5 members keep the
	// lookup quorum and the adaptive layer stays central.
	if cell(t, res, 0, 3, 3) != "flood" {
		t.Fatalf("cluster(1) member-down chose %s", cell(t, res, 0, 3, 3))
	}
	for i := 4; i <= 5; i++ {
		if cell(t, res, 0, i, 3) != "central" {
			t.Fatalf("row %d (quorum-up cluster) chose %s", i, cell(t, res, 0, i, 3))
		}
	}
	// All lookups succeeded in every scenario (graceful degradation).
	for i := range rows {
		if !strings.HasPrefix(cell(t, res, 0, i, 4), "2/") {
			t.Fatalf("scenario %d lookups: %s", i, cell(t, res, 0, i, 4))
		}
	}
}

func TestE3Shape(t *testing.T) {
	res := quickRun(t, "E3")
	utility := cellFloat(t, res, 0, 0, 2)
	nearest := cellFloat(t, res, 0, 1, 2)
	reliable := cellFloat(t, res, 0, 2, 2)
	if utility < nearest || utility < reliable {
		t.Fatalf("utility selection not best: %v vs %v / %v", utility, nearest, reliable)
	}
}

func TestE4Shape(t *testing.T) {
	res := quickRun(t, "E4")
	rows := res.Tables[0].Rows
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Row order: rate0/adaptive, rate0/static, rate1/adaptive, rate1/static...
	// At kill rate 0 both modes are perfect.
	if cellFloat(t, res, 0, 0, 2) != 100 || cellFloat(t, res, 0, 1, 2) != 100 {
		t.Fatalf("baseline rows not perfect: %v", rows)
	}
	// At the highest kill rate, middleware success must beat static.
	adaptive := cellFloat(t, res, 0, 4, 2)
	static := cellFloat(t, res, 0, 5, 2)
	if adaptive <= static {
		t.Fatalf("adaptive %v%% <= static %v%%", adaptive, static)
	}
}

func TestE4XShape(t *testing.T) {
	res := quickRun(t, "E4x")
	rows := res.Tables[0].Rows
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The scenario injected faults and the workload still made progress.
	if cellFloat(t, res, 0, 0, 1) < 1 {
		t.Fatalf("no faults injected: %v", rows)
	}
	if cellFloat(t, res, 0, 0, 2) <= 0 {
		t.Fatalf("no successful requests under chaos: %v", rows)
	}
	// A clean run: no invariant violations.
	if v := cellFloat(t, res, 0, 0, 5); v != 0 {
		t.Fatalf("%v invariant violations: %+v", v, res.Notes)
	}
}

func TestE5Shape(t *testing.T) {
	res := quickRun(t, "E5")
	rows := res.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// All strategies delivered everything on a clean grid.
	for i := range rows {
		if cell(t, res, 0, i, 1) != "5/5" {
			t.Fatalf("row %d delivery: %v", i, rows[i])
		}
	}
	// Flooding transmissions exceed geographic's.
	floodTx := cellFloat(t, res, 0, 0, 2)
	geoTx := cellFloat(t, res, 0, 3, 2)
	if floodTx <= geoTx {
		t.Fatalf("flooding tx %v <= geographic tx %v", floodTx, geoTx)
	}
	// DV paid control traffic, geographic none.
	if cellFloat(t, res, 0, 1, 4) == 0 {
		t.Fatal("dv-hop shows no control traffic")
	}
	if cellFloat(t, res, 0, 3, 4) != 0 {
		t.Fatal("geographic shows control traffic")
	}
}

func TestE5Ablation(t *testing.T) {
	res := quickRun(t, "E5a")
	// Hop count takes the drained shortcut; the energy metric detours.
	if cell(t, res, 0, 0, 1) != "weak" {
		t.Fatalf("hop metric used relay %s, want weak", cell(t, res, 0, 0, 1))
	}
	if cell(t, res, 0, 1, 1) != "detour (s1,s2)" {
		t.Fatalf("energy metric used relay %s, want detour", cell(t, res, 0, 1, 1))
	}
	// The energy metric leaves the weak node with more residual energy.
	hopResidual := cellFloat(t, res, 0, 0, 2)
	energyResidual := cellFloat(t, res, 0, 1, 2)
	if energyResidual <= hopResidual {
		t.Fatalf("energy residual %v <= hop residual %v", energyResidual, hopResidual)
	}
}

func TestE6Shape(t *testing.T) {
	res := quickRun(t, "E6")
	rows := res.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Row order: all-sensors, random-feasible, greedy, exhaustive.
	all := cellFloat(t, res, 0, 0, 1)
	exhaustive := cellFloat(t, res, 0, 3, 1)
	if exhaustive <= all {
		t.Fatalf("milan lifetime %v <= all-sensors %v", exhaustive, all)
	}
	greedy := cellFloat(t, res, 0, 2, 1)
	if greedy <= all {
		t.Fatalf("greedy lifetime %v <= all-sensors %v", greedy, all)
	}
}

func TestE6Ablation(t *testing.T) {
	res := quickRun(t, "E6a")
	rows := res.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Exhaustive's predicted lifetime ≥ greedy's at each size.
	for i := 0; i < len(rows); i += 2 {
		ex := cellFloat(t, res, 0, i, 2)
		gr := cellFloat(t, res, 0, i+1, 2)
		if ex < gr {
			t.Fatalf("row %d: exhaustive %v < greedy %v", i, ex, gr)
		}
	}
}

func TestE7Shape(t *testing.T) {
	res := quickRun(t, "E7")
	rows := res.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := range rows {
		if ops := cellFloat(t, res, 0, i, 2); ops <= 0 {
			t.Fatalf("row %d ops/sec = %v", i, ops)
		}
	}
}

func TestE8Shape(t *testing.T) {
	res := quickRun(t, "E8")
	if len(res.Tables) != 3 {
		t.Fatalf("tables = %d", len(res.Tables))
	}
	// At U=0.5 (row 0) nobody misses; at U=1.1 (row 3) EDF misses less than
	// FIFO.
	if cellFloat(t, res, 0, 0, 1) != 0 || cellFloat(t, res, 0, 0, 3) != 0 {
		t.Fatalf("misses at U=0.5: %v", res.Tables[0].Rows[0])
	}
	fifoOver := cellFloat(t, res, 0, 3, 1)
	edfOver := cellFloat(t, res, 0, 3, 3)
	if edfOver >= fifoOver {
		t.Fatalf("EDF %v%% >= FIFO %v%% under overload", edfOver, fifoOver)
	}
	// Admission: U=1.1 rejected by both; U=0.5 admitted by both.
	if cell(t, res, 1, 0, 1) != "true" || cell(t, res, 1, 3, 2) != "false" {
		t.Fatalf("admission table wrong: %v", res.Tables[1].Rows)
	}
	// Handoff: 8 moved, 2 aborted.
	if cell(t, res, 2, 0, 1) != "8" || cell(t, res, 2, 0, 2) != "2" {
		t.Fatalf("handoff row: %v", res.Tables[2].Rows[0])
	}
}

func TestE9Shape(t *testing.T) {
	res := quickRun(t, "E9")
	rows := res.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := range rows {
		if cell(t, res, 0, i, 4) != "true" {
			t.Fatalf("row %d state not intact: %v", i, rows[i])
		}
	}
	// Group commit beats fsync-per-append on throughput.
	group := cellFloat(t, res, 0, 0, 1)
	synced := cellFloat(t, res, 0, 1, 1)
	if group <= synced {
		t.Fatalf("group commit %v <= synced %v ops/s", group, synced)
	}
	// Checkpoint at 50% replays about half the ops.
	full := cellFloat(t, res, 0, 0, 2)
	ckpt := cellFloat(t, res, 0, 2, 2)
	if ckpt >= full {
		t.Fatalf("checkpoint replay %v >= full replay %v", ckpt, full)
	}
}

func TestE10Shape(t *testing.T) {
	res := quickRun(t, "E10")
	// Codec sizes: binary < json < xml.
	binSize := cellFloat(t, res, 0, 0, 1)
	jsonSize := cellFloat(t, res, 0, 1, 1)
	xmlSize := cellFloat(t, res, 0, 2, 1)
	if !(binSize < jsonSize && jsonSize <= xmlSize) {
		t.Fatalf("size ordering: %v %v %v", binSize, jsonSize, xmlSize)
	}
	// Both paths completed with sane (positive) round-trip times. The
	// "gateway > direct" ordering holds in full runs but is too
	// scheduler-sensitive to assert at quick-mode op counts on a loaded box.
	direct := cellFloat(t, res, 2, 0, 1)
	bridged := cellFloat(t, res, 2, 1, 1)
	if direct <= 0 || bridged <= 0 {
		t.Fatalf("RTTs: direct %v, bridged %v", direct, bridged)
	}
}

func TestE11Shape(t *testing.T) {
	res := quickRun(t, "E11")
	rows := res.Tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want detector-on and baseline", len(rows))
	}
	// Same kill schedule: the detector run must waste strictly fewer
	// requests on dead suppliers than the baseline — the E11 core claim.
	onDead := cellFloat(t, res, 0, 0, 4)
	offDead := cellFloat(t, res, 0, 1, 4)
	if onDead >= offDead {
		t.Fatalf("liveness did not reduce dead-peer attempts: on=%v off=%v\n%+v",
			onDead, offDead, res.Notes)
	}
	// And hold strictly better availability after the kills.
	if onTail, offTail := cellFloat(t, res, 0, 0, 2), cellFloat(t, res, 0, 1, 2); onTail <= offTail {
		t.Fatalf("post-kill availability did not improve: on=%v%% off=%v%%", onTail, offTail)
	}
	// The detector-on run must be invariant-clean; the baseline is expected
	// to violate (that is the experiment's point).
	if v := cellFloat(t, res, 0, 0, 5); v != 0 {
		t.Fatalf("%v detector-on violations: %+v", v, res.Notes)
	}
}

func TestE12Shape(t *testing.T) {
	res := quickRun(t, "E12")
	rows := res.Tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want classic and cluster", len(rows))
	}
	// The cluster's centralized path must serve every probe through the kill
	// window — the tentpole claim the chaos invariant also gates.
	if central := cellFloat(t, res, 0, 1, 4); central != 100 {
		t.Fatalf("cluster central-path availability %v%% in kill window, want 100%%\n%+v",
			central, res.Notes)
	}
	// Both worlds must be invariant-clean: the classic world survives via
	// flood fallback, the cluster via replication.
	for i := range rows {
		if v := cellFloat(t, res, 0, i, 5); v != 0 {
			t.Fatalf("row %d has %v violations: %+v", i, v, res.Notes)
		}
	}
}

func TestE13Shape(t *testing.T) {
	res := quickRun(t, "E13")
	rowByLabel := func(label string) int {
		for i, row := range res.Tables[0].Rows {
			if len(row) > 0 && row[0] == label {
				return i
			}
		}
		t.Fatalf("row %q missing:\n%s", label, res.Tables[0].Render())
		return -1
	}
	flat, lanes := rowByLabel("flat 2.0x"), rowByLabel("lanes 2.0x")
	flatMiss := cellFloat(t, res, 0, flat, 1)
	lanesMiss := cellFloat(t, res, 0, lanes, 1)
	// The tentpole claim at 2x overload: lanes keep the control loop on
	// deadline (near-zero misses; 10% allows CI scheduler noise) while the
	// flat bound starves it, and bulk is what sheds in lanes mode.
	if lanesMiss > 10 {
		t.Fatalf("lanes control miss %v%% at 2x overload, want ~0\n%s", lanesMiss, res.Tables[0].Render())
	}
	if lanesMiss > flatMiss {
		t.Fatalf("lanes (%v%%) missed more than flat (%v%%)\n%s", lanesMiss, flatMiss, res.Tables[0].Render())
	}
	if shed := cellFloat(t, res, 0, lanes, 4); shed == 0 {
		t.Fatalf("lanes mode shed no bulk at 2x overload\n%s", res.Tables[0].Render())
	}
}

func TestE15Shape(t *testing.T) {
	res := quickRun(t, "E15")
	if len(res.Tables) != 3 {
		t.Fatalf("tables: %d, want 3", len(res.Tables))
	}
	// Attribution: the injected hot topic must rank #1 in the cluster merge
	// and the merged p99 must track the exact distribution.
	if rank := cellFloat(t, res, 0, 0, 1); rank != 1 {
		t.Fatalf("hot topic rank %v, want 1\n%s", rank, res.Tables[0].Render())
	}
	if p99 := cellFloat(t, res, 0, 0, 5); p99 > 5 {
		t.Fatalf("hot p99 error %v%%, want <= 5\n%s", p99, res.Tables[0].Render())
	}
	// Overhead: the sampled-out path must be allocation-free, and the
	// recorder's absolute cost on the no-op closed loop must stay in the
	// sub-microsecond regime (10µs ceiling here for loaded CI machines —
	// the tight 2µs gate belongs to ndsm-bench -compare, where the trials
	// are longer).
	if allocs := cellFloat(t, res, 1, 0, 1); allocs != 0 {
		t.Fatalf("sampled-out path costs %v allocs/op, want 0\n%s", allocs, res.Tables[1].Render())
	}
	if ns := cellFloat(t, res, 2, 0, 3); ns > 10000 {
		t.Fatalf("wide-event overhead %v ns/req, want <= 10000\n%s", ns, res.Tables[2].Render())
	}
}

func TestRunnerUnknownID(t *testing.T) {
	if _, err := (Runner{}).Run("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRender(t *testing.T) {
	out := Render(quickRun(t, "F1"))
	if !strings.Contains(out, "=== F1:") || !strings.Contains(out, "note:") {
		t.Fatalf("render:\n%s", out)
	}
}
