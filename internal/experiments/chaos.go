package experiments

import (
	"fmt"

	"ndsm/internal/chaos"
	"ndsm/internal/stats"
	"ndsm/internal/trace"
)

// e4x extends E4 from single-cause supplier kills to composed failures: each
// seeded scenario drives the full radio stack through loss bursts, latency
// spikes, partitions, supplier crashes, registry loss, and WAL crash-replay
// cycles, then checks the five §3.4/§3.8 invariants that apply to a world
// with liveness on (acked ops stay durable, rebinding recovers within a
// bound, discovery converges after registry loss, the failure detector
// suspects a killed supplier before the binding stays on it, WAL replay
// reproduces state). Every row is reproducible from its seed and the soak's
// config.
func e4x(quick bool, tr *trace.Tracer) (Result, error) {
	sc := chaos.ScenarioConfig{WorldConfig: chaos.WorldConfig{Seed: 101, Tracer: tr}, Ticks: pick(quick, 40, 60), Windows: 4}
	report, err := chaos.Soak(sc, pick(quick, 1, 3))
	if err != nil {
		return Result{}, fmt.Errorf("E4X: %w", err)
	}

	table := stats.NewTable("E4x: composed-fault chaos soak",
		"seed", "faults", "requests ok %", "lookups ok %", "rebinds", "violations")
	for _, res := range report.Results {
		injected := 0
		for _, ev := range res.Events {
			if ev.Phase == chaos.PhaseInject {
				injected++
			}
		}
		table.AddRow(res.Config.Seed, injected,
			100*float64(res.TicksOK)/float64(len(res.Ticks)),
			100*float64(res.LookupsOK)/float64(len(res.Ticks)),
			res.Rebinds, len(res.Violations))
	}

	notes := []string{
		"Each scenario composes loss bursts, latency spikes, partitions, supplier",
		"crashes, registry kills and WAL crash-replay cycles from one seed;",
		"violations list the reproducing seed — replay a row with",
		fmt.Sprintf("chaos.RunScenario(%#v), Seed set to the row's seed.", sc),
	}
	for _, v := range report.Violations() {
		notes = append(notes, "VIOLATION "+v)
	}
	return Result{
		ID:     "E4x",
		Title:  "Chaos soak: invariants under composed failures",
		Tables: []*stats.Table{table},
		Notes:  notes,
	}, nil
}
