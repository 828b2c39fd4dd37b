package chaos

import (
	"os"
	"testing"
	"time"

	"ndsm/internal/simtime"
)

// registryKillSchedule crash-kills one cluster member for a fixed window,
// with nothing else going on — the cleanest stage for watching replication
// and the lookup cache absorb the loss.
func registryKillSchedule(target string, fromTick, ticks int) Schedule {
	return Schedule{{
		At:       time.Duration(fromTick) * TickEvery,
		Fault:    FaultKillRegistryNode,
		Target:   target,
		Duration: time.Duration(ticks) * TickEvery,
	}}
}

// TestClusterWorldAbsorbsMemberKill drives a 3-member RF=2 cluster world
// directly and inspects the per-tick cluster probe trace: after the detection
// allowance, a single member kill must cost the consumer zero cached-cluster
// lookups — the acceptance claim behind the whole registry-cluster design.
func TestClusterWorldAbsorbsMemberKill(t *testing.T) {
	vclock := simtime.NewVirtual(time.Unix(0, 0))
	w, err := NewWorld(WorldConfig{Seed: 1, Cluster: true}, vclock, nil)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close() //nolint:errcheck

	if got := len(w.ClusterMembers()); got != 3 {
		t.Fatalf("cluster has %d members, want 3", got)
	}

	engine := NewEngine(vclock)
	w.RegisterInjectors(engine)
	const killAt, killTicks, total = 5, 15, 30
	engine.Load(registryKillSchedule("registry1", killAt, killTicks))

	for i := 0; i < total; i++ {
		vclock.Advance(TickEvery)
		if err := engine.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		w.Tick(i)
	}
	if err := engine.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	probes := w.Ticks()
	if len(probes) != total {
		t.Fatalf("cluster probe trace has %d entries, want %d", len(probes), total)
	}
	// The kill window, past the allowance: every probe must succeed — two
	// live members clear the N-RF+1=2 lookup quorum and every key has a
	// surviving replica.
	for i := killAt + 3; i < killAt+killTicks; i++ {
		if !probes[i].ClusterOK {
			t.Errorf("cluster lookup failed at tick %d with only registry1 down", i)
		}
	}

	// After the revive, anti-entropy must restore full replication: every
	// live key present on all of its ring owners.
	if msgs := clusterReplication(w, engine.Events()); len(msgs) > 0 {
		for _, m := range msgs {
			t.Errorf("replication: %s", m)
		}
	}
	// And the availability invariant must agree with the hand check.
	if msgs := clusterLookupAvailability(w, engine.Events()); len(msgs) > 0 {
		for _, m := range msgs {
			t.Errorf("availability: %s", m)
		}
	}
}

// TestClusterScenarioInvariantsClean is the CI smoke: one full seeded
// scenario on the cluster world, every invariant clean. The generated
// schedule draws single-member kills (never whole-registry kills) because
// StandardChoices sees the cluster.
func TestClusterScenarioInvariantsClean(t *testing.T) {
	res, err := RunScenario(ScenarioConfig{
		WorldConfig: WorldConfig{Seed: 4, Cluster: true},
		Ticks:       40,
		Windows:     3,
	})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	for _, ev := range res.Events {
		if ev.Fault == FaultKillRegistry {
			t.Errorf("cluster scenario drew a whole-registry kill: %s", ev)
		}
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestClusterInvariantsSkipPlainWorlds guards the invariant plumbing: the
// cluster checks must be inert on classic single-registry worlds even when
// handed a (bogus) member-kill event.
func TestClusterInvariantsSkipPlainWorlds(t *testing.T) {
	w, err := NewWorld(WorldConfig{Seed: 1, NoLiveness: true}, nil, nil)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close() //nolint:errcheck
	events := []Event{{At: 0, Fault: FaultKillRegistryNode, Target: "registry0", Phase: PhaseInject}}
	if msgs := clusterLookupAvailability(w, events); len(msgs) != 0 {
		t.Errorf("availability check fired on a plain world: %v", msgs)
	}
	if msgs := clusterReplication(w, events); len(msgs) != 0 {
		t.Errorf("replication check fired on a plain world: %v", msgs)
	}
}

// TestClusterSoak is the acceptance-gate soak: >=20 seeds of the standard
// scenario on a 3-member RF=2 cluster with liveness on, every invariant —
// including cluster-lookup-availability and cluster-replication — clean,
// every violation reproducible by seed.
func TestClusterSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed soak skipped in short mode")
	}
	report, err := Soak(ScenarioConfig{
		WorldConfig: WorldConfig{Seed: 301, Cluster: true},
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
	t.Logf("cluster soak: %d/%d scenarios clean", clean, len(report.Results))
}
