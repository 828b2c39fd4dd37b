package experiments

import (
	"fmt"
	"time"

	"ndsm/internal/chaos"
	"ndsm/internal/stats"
	"ndsm/internal/trace"
)

// e12 is E11's question asked of the registry instead of the suppliers: at a
// fixed tick the registry dies for a fixed window. The classic world loses
// its only registry node, so the centralized path is gone and every lookup
// survives only by flooding until the revive; the cluster world loses one of
// N members and the centralized path keeps answering — every key has a
// surviving replica and the N-RF+1 lookup quorum still clears. The rows
// compare lookup availability inside the kill window; the cluster row also
// reports the cache-backed cluster path probed without any flood fallback.
func e12(quick bool, tr *trace.Tracer) (Result, error) {
	ticks := pick(quick, 40, 60)
	killAt := pick(quick, 8, 10)     // tick of the registry kill
	killTicks := pick(quick, 15, 20) // how long the killed node stays down
	windowOK := func(res *chaos.ScenarioResult, ok func(chaos.TickRecord) bool) float64 {
		hits, n := 0, 0
		for i := killAt; i < killAt+killTicks && i < len(res.Ticks); i++ {
			n++
			if ok(res.Ticks[i]) {
				hits++
			}
		}
		if n == 0 {
			return 0
		}
		return 100 * float64(hits) / float64(n)
	}
	lookupOK := func(r chaos.TickRecord) bool { return r.LookupOK }
	run := func(cluster bool, fault chaos.FaultKind, target string) (*chaos.ScenarioResult, error) {
		return chaos.RunScenario(chaos.ScenarioConfig{
			WorldConfig: chaos.WorldConfig{Seed: 9, Cluster: cluster, Tracer: tr},
			Ticks:       ticks,
			Schedule: chaos.Schedule{{
				At:       time.Duration(killAt) * chaos.TickEvery,
				Fault:    fault,
				Target:   target,
				Duration: time.Duration(killTicks) * chaos.TickEvery,
			}},
		})
	}

	classic, err := run(false, chaos.FaultKillRegistry, chaos.RegistryID)
	if err != nil {
		return Result{}, fmt.Errorf("E12 classic: %w", err)
	}
	clustered, err := run(true, chaos.FaultKillRegistryNode, "registry1")
	if err != nil {
		return Result{}, fmt.Errorf("E12 cluster: %w", err)
	}

	table := stats.NewTable("E12: availability through a registry kill",
		"world", "requests ok %", "lookups ok %", "lookup ok % in kill window",
		"central-path ok % in kill window", "violations")
	table.AddRow("single registry",
		100*float64(classic.TicksOK)/float64(len(classic.Ticks)),
		100*float64(classic.LookupsOK)/float64(len(classic.Ticks)),
		windowOK(classic, lookupOK),
		"n/a (registry dead)",
		len(classic.Violations))
	table.AddRow(fmt.Sprintf("cluster(%d) RF=2", chaos.ClusterSize),
		100*float64(clustered.TicksOK)/float64(len(clustered.Ticks)),
		100*float64(clustered.LookupsOK)/float64(len(clustered.Ticks)),
		windowOK(clustered, lookupOK),
		windowOK(clustered, func(r chaos.TickRecord) bool { return r.ClusterOK }),
		len(clustered.Violations))

	notes := []string{
		fmt.Sprintf("Same schedule shape both rows: registry down ticks %d-%d of %d.",
			killAt, killAt+killTicks, ticks),
		"The classic world survives the window only because adaptive discovery",
		"floods while its registry is dead; the cluster world keeps the",
		"centralized path — replication, quorum lookups, lease cache — serving.",
	}
	for _, v := range classic.Violations {
		notes = append(notes, "VIOLATION (classic) "+v)
	}
	for _, v := range clustered.Violations {
		notes = append(notes, "VIOLATION (cluster) "+v)
	}
	return Result{
		ID:     "E12",
		Title:  "Registry cluster: availability through a registry-node kill",
		Tables: []*stats.Table{table},
		Notes:  notes,
	}, nil
}
