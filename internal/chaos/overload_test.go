package chaos

import (
	"os"
	"testing"
	"time"

	"ndsm/internal/simtime"
)

// TestOverloadWorldIsolatesControlLane drives a fault-free overload world
// and checks the tentpole property directly: every tick floods the bound
// supplier with a bulk burst that must shed, while the control probe's
// reserved slot keeps it admitted — zero control sheds, every probe served.
func TestOverloadWorldIsolatesControlLane(t *testing.T) {
	vclock := simtime.NewVirtual(time.Unix(0, 0))
	w, err := NewWorld(WorldConfig{Seed: 7, Overload: true}, vclock, nil)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close() //nolint:errcheck

	const ticks = 12
	for i := 0; i < ticks; i++ {
		vclock.Advance(TickEvery)
		w.Tick(i)
	}

	recs := w.Ticks()
	if len(recs) != ticks {
		t.Fatalf("trace length %d, want %d", len(recs), ticks)
	}
	okCtl, shedCtl, admitted, shedBulk := 0, 0, 0, 0
	for _, r := range recs {
		if r.CtlOK {
			okCtl++
		}
		if r.CtlShed {
			shedCtl++
		}
		admitted += r.BulkAdmitted
		shedBulk += r.BulkShed
	}
	if shedCtl != 0 {
		t.Fatalf("%d/%d control probes shed; the reservation must hold them all", shedCtl, ticks)
	}
	if okCtl != ticks {
		t.Fatalf("%d/%d control probes served on a fault-free network", okCtl, ticks)
	}
	// The burst (10) overflows shared slots (3) + bulk queue (2): every tick
	// must both serve and shed bulk work.
	if admitted == 0 || shedBulk == 0 {
		t.Fatalf("bulk admitted=%d shed=%d; the burst must both serve and shed", admitted, shedBulk)
	}
	if v := priorityIsolation(w, nil); len(v) != 0 {
		t.Fatalf("priority-isolation violations on a clean run: %v", v)
	}

	// Tail capture: every client-observed shed must be retained server-side
	// as a wide event with its topic and reason attached.
	if v := tailCapture(w, nil); len(v) != 0 {
		t.Fatalf("tail-capture violations on a clean run: %v", v)
	}
	retained := 0
	for id, recs := range w.ShedRecords() {
		for _, rec := range recs {
			if rec.Topic != BulkTopic && rec.Topic != CtlTopic {
				t.Fatalf("%s retained a shed on unexpected topic %q", id, rec.Topic)
			}
			if rec.Lane == "" || rec.ShedReason == "" {
				t.Fatalf("%s shed record missing lane/reason: %+v", id, rec)
			}
		}
		retained += len(recs)
	}
	if retained < shedBulk {
		t.Fatalf("tail rings retain %d sheds, consumer observed %d", retained, shedBulk)
	}
}

// TestOverloadScenarioShort is the CI smoke: one seeded overload scenario
// through the full fault schedule, judged by the standard invariant set plus
// priority-isolation.
func TestOverloadScenarioShort(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{
		WorldConfig: WorldConfig{Seed: 11, Overload: true},
		Ticks:       30,
		Windows:     3,
		TraceDir:    os.Getenv("NDSM_CHAOS_TRACE_DIR"),
	})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestOverloadSoak is the acceptance soak: 20 seeds of the overload world,
// each with its own generated fault schedule, all clean on
// priority-isolation (and every other invariant).
func TestOverloadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed soak skipped in short mode")
	}
	report, err := Soak(ScenarioConfig{
		WorldConfig: WorldConfig{Seed: 401, Overload: true},
		Ticks:       60,
		Windows:     4,
		TraceDir:    os.Getenv("NDSM_CHAOS_TRACE_DIR"),
	}, 20)
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	clean := 0
	for _, res := range report.Results {
		if len(res.Violations) == 0 {
			clean++
		}
	}
	for _, v := range report.Violations() {
		t.Errorf("soak violation: %s", v)
	}
	t.Logf("overload soak: %d/%d scenarios clean", clean, len(report.Results))
}
