package experiments

import (
	"fmt"
	"time"

	"ndsm/internal/chaos"
	"ndsm/internal/stats"
)

// e11 measures bounded degradation under the liveness layer: the same seeded
// kill schedule runs twice, once with the failure detector + breaker on and
// once with them off, and the runs are compared on how many requests each
// aimed at dead suppliers.
//
// The schedule permanently kills the two best-reliability suppliers (the
// consumer starts bound to the best). Without a detector their hour-long
// leases keep them listed, QoS selection keeps preferring them over the live
// but lower-ranked survivor, and single-peer exclusion makes the binding
// ping-pong between the two corpses for the rest of the run — availability
// collapses. With the detector on, lease expiry plus the fixed-timeout
// fallback turn each kill into suspicion within a few ticks, selection skips
// the suspects, and the binding settles on the survivor: degradation stays
// bounded by detection time instead of compounding.
func e11(quick bool) (Result, error) {
	const (
		// The ticks of the two permanent supplier kills.
		firstKill  = 5
		secondKill = 15
	)
	schedule := chaos.Schedule{
		{At: time.Duration(firstKill) * chaos.TickEvery, Fault: chaos.FaultCrashSupplier, Target: "s0"},
		{At: time.Duration(secondKill) * chaos.TickEvery, Fault: chaos.FaultCrashSupplier, Target: "s1"},
	}
	run := func(disable bool) (*chaos.ScenarioResult, error) {
		return chaos.RunScenario(chaos.ScenarioConfig{
			WorldConfig: chaos.WorldConfig{Seed: 9, NoLiveness: disable},
			Ticks:       pick(quick, 40, 60),
			Schedule:    schedule,
		})
	}
	on, err := run(false)
	if err != nil {
		return Result{}, fmt.Errorf("E11 detector-on: %w", err)
	}
	off, err := run(true)
	if err != nil {
		return Result{}, fmt.Errorf("E11 detector-off: %w", err)
	}

	// Tail availability: the steady state after the second kill, where the
	// two runs diverge.
	tailOK := func(res *chaos.ScenarioResult) float64 {
		ok, n := 0, 0
		for i := secondKill; i < len(res.Ticks); i++ {
			n++
			if res.Ticks[i].OK {
				ok++
			}
		}
		if n == 0 {
			return 0
		}
		return 100 * float64(ok) / float64(n)
	}

	table := stats.NewTable("E11: bounded degradation, same kill schedule",
		"detector", "requests ok %", "ok % after kills", "rebinds", "dead-peer attempts", "violations")
	for _, row := range []struct {
		name string
		res  *chaos.ScenarioResult
	}{{"on", on}, {"off (baseline)", off}} {
		table.AddRow(row.name,
			100*float64(row.res.TicksOK)/float64(len(row.res.Ticks)),
			tailOK(row.res),
			row.res.Rebinds,
			row.res.DeadAttempts,
			len(row.res.Violations))
	}

	notes := []string{
		"Both rows replay the identical schedule: permanent kills of the two",
		"best-reliability suppliers at ticks " +
			fmt.Sprintf("%d and %d; one supplier survives.", firstKill, secondKill),
		"'dead-peer attempts' counts ticks whose request was aimed at a killed",
		"supplier before the liveness layer (if any) diverted it.",
	}
	if on.DeadAttempts < off.DeadAttempts {
		notes = append(notes, fmt.Sprintf(
			"liveness cut dead-peer attempts %d -> %d and held post-kill availability at %.0f%% vs %.0f%%.",
			off.DeadAttempts, on.DeadAttempts, tailOK(on), tailOK(off)))
	} else {
		notes = append(notes, fmt.Sprintf(
			"UNEXPECTED: liveness did not reduce dead-peer attempts (on=%d, off=%d).",
			on.DeadAttempts, off.DeadAttempts))
	}
	for _, v := range on.Violations {
		notes = append(notes, "VIOLATION (detector on) "+v)
	}
	for _, v := range off.Violations {
		// Baseline violations are the experiment's point, not a failure: with
		// no detector, stale leases break the rebind-recovery bound.
		notes = append(notes, "baseline violation (expected): "+v)
	}
	return Result{
		ID:     "E11",
		Title:  "Liveness layer: bounded degradation vs detector-off baseline",
		Tables: []*stats.Table{table},
		Notes:  notes,
	}, nil
}
