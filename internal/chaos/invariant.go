package chaos

import (
	"fmt"
	"slices"

	"ndsm/internal/discovery/cluster"
	"ndsm/internal/slo"
)

// invariants are the properties of a finished chaos run, in the order their
// violations are reported. Each check returns one message per violation
// (empty means the invariant held); RunScenario prefixes each message with
// the invariant's name. A check whose plane the world lacks returns nothing.
var invariants = []struct {
	name  string
	check func(w *World, events []Event) []string
}{
	{"acked-durable", ackedDurable},
	{"rebind-recovery", rebindRecovery},
	{"discovery-convergence", discoveryConvergence},
	{"suspect-before-violate", suspectBeforeViolate},
	{"telemetry-freshness", telemetryFreshness},
	{"cluster-lookup-availability", clusterLookupAvailability},
	{"cluster-replication", clusterReplication},
	{"wal-replay-clean", walReplayClean},
	{"priority-isolation", priorityIsolation},
	{"tail-capture", tailCapture},
	{"alert-latency", alertLatency},
}

// The invariants' tick budgets.
const (
	// rebindBound and convergeBound are the rebind-recovery and
	// discovery-convergence budgets.
	rebindBound   = 8
	convergeBound = 8
	// suspectBound is the suspect-before-violate detection budget, matching
	// the rebind-recovery bound the detector must beat.
	suspectBound = 8
	// freshBound is the telemetry-freshness budget for both transitions: the
	// world marks stale after 2.5 missed ticks, so 5 leaves detection margin.
	freshBound = 5
	// clusterBound is the tick allowance after a member kill during which a
	// cluster probe may still fail while timeouts and suspicion settle.
	clusterBound = 3
	// alertBound is the alert-latency budget from inject to critical: ~3
	// ticks for staleness marking plus ~4 for the long window to cross
	// half-stale, with margin.
	alertBound = 10
)

// endTick is the tick at which the fault injected by events[idx] ends: the
// tick of its revert, or n (the end of the run) unless an explicit,
// non-permanent revert of the same fault and target lands earlier.
func endTick(events []Event, idx, n int) int {
	ev := events[idx]
	for _, rv := range events[idx+1:] {
		if rv.Phase == PhaseRevert && rv.Fault == ev.Fault && rv.Target == ev.Target {
			if rv.At < permanentAt {
				return min(tickOf(rv.At), n)
			}
			break
		}
	}
	return n
}

// anyTick reports whether ok holds on some tick in [from, to].
func anyTick(ticks []TickRecord, from, to int, ok func(TickRecord) bool) bool {
	for i := max(from, 0); i <= to && i < len(ticks); i++ {
		if ok(ticks[i]) {
			return true
		}
	}
	return false
}

// ackedDurable checks at-least-once durability: every operation the consumer
// holds an ack for must exist in some supplier's recovered state. A supplier
// only acks after its recovery manager logged and applied the operation, so
// an acked-but-missing key means the stack lost an acknowledged write.
func ackedDurable(w *World, _ []Event) []string {
	var out []string
	for _, key := range w.Acked() {
		if !w.Durable(key) {
			out = append(out, fmt.Sprintf("acked op %s not durable on any supplier", key))
		}
	}
	return out
}

// rebindRecovery checks the §3.4 graceful-degradation bound: after a
// supplier crash is injected, the consumer must complete a successful
// request within rebindBound ticks — the binding has other suppliers to
// re-match to, and fault windows never overlap.
func rebindRecovery(w *World, events []Event) []string {
	ticks := w.Ticks()
	var out []string
	for _, ev := range events {
		if ev.Phase != PhaseInject || ev.Fault != FaultCrashSupplier {
			continue
		}
		from := tickOf(ev.At)
		if from+rebindBound >= len(ticks) {
			continue // crash too close to the end of the run to judge
		}
		if !anyTick(ticks, from, from+rebindBound, func(r TickRecord) bool { return r.OK }) {
			out = append(out, fmt.Sprintf(
				"no successful request within %d ticks of %s crash at %v (tick %d)",
				rebindBound, ev.Target, ev.At, from))
		}
	}
	return out
}

// discoveryConvergence checks that adaptive discovery converges to a working
// mode after the centralized registry dies: within convergeBound ticks of
// the kill, a lookup probe must succeed again (via flood fail-over).
func discoveryConvergence(w *World, events []Event) []string {
	ticks := w.Ticks()
	var out []string
	for _, ev := range events {
		if ev.Phase != PhaseInject || ev.Fault != FaultKillRegistry {
			continue
		}
		from := tickOf(ev.At)
		if from+convergeBound >= len(ticks) {
			continue
		}
		if !anyTick(ticks, from, from+convergeBound, func(r TickRecord) bool { return r.LookupOK }) {
			out = append(out, fmt.Sprintf(
				"no successful lookup within %d ticks of registry kill at %v (tick %d)",
				convergeBound, ev.At, from))
		}
	}
	return out
}

// suspectBeforeViolate checks the liveness layer's two promises around a
// supplier crash (it only applies to worlds built with liveness):
//
//  1. Detection: the consumer's failure detector suspects a killed supplier
//     within suspectBound ticks of the kill — before the crash can fester
//     into a QoS violation the application sees.
//  2. No traffic after suspicion: once the killed supplier is suspected at
//     the end of a tick, no later tick (while it is still dead) may end with
//     the binding pointed at it — proactive rebinding must have moved on.
//
// Crashes reverted before the detection deadline are skipped: a supplier may
// legitimately come back before the detector is required to have noticed.
func suspectBeforeViolate(w *World, events []Event) []string {
	if w.health == nil {
		return nil
	}
	ticks := w.Ticks()
	n := len(ticks)
	var out []string
	for idx, ev := range events {
		if ev.Phase != PhaseInject || ev.Fault != FaultCrashSupplier {
			continue
		}
		from := tickOf(ev.At)
		revive := endTick(events, idx, n)

		deadline := from + suspectBound
		if deadline < revive && deadline < n &&
			!anyTick(ticks, from, deadline, func(r TickRecord) bool { return r.Suspected[ev.Target] }) {
			out = append(out, fmt.Sprintf(
				"%s killed at %v (tick %d) never suspected within %d ticks",
				ev.Target, ev.At, from, suspectBound))
		}

		// Once suspected at end of tick i-1 (and still dead), tick i must not
		// end bound to the corpse.
		for i := from + 1; i < revive; i++ {
			if ticks[i-1].Suspected[ev.Target] && ticks[i].Bound == ev.Target {
				out = append(out, fmt.Sprintf(
					"binding still pointed at suspected dead %s at end of tick %d",
					ev.Target, i))
			}
		}
	}
	return out
}

// telemetryFreshness checks the telemetry plane's staleness contract around
// network partitions (it only applies to worlds built with SLO, which builds
// the telemetry plane):
//
//  1. Stale on silence: once a supplier is partitioned away from the
//     aggregator, its reports stop arriving, so the aggregator must mark it
//     stale within freshBound ticks of the inject.
//  2. Fresh on heal: after the partition reverts, the next successful
//     publish must flip the supplier back to fresh within freshBound ticks.
//
// Partitions reverted before the staleness deadline are skipped, exactly
// like short-lived crashes in suspectBeforeViolate: a report may
// legitimately get through again before staleness was required.
func telemetryFreshness(w *World, events []Event) []string {
	if w.agg == nil {
		return nil
	}
	ticks := w.Ticks()
	n := len(ticks)
	var out []string
	for idx, ev := range events {
		if ev.Phase != PhaseInject || ev.Fault != FaultPartition || !slices.Contains(w.supplier, ev.Target) {
			continue
		}
		from := tickOf(ev.At)
		heal := endTick(events, idx, n)

		staleDeadline := from + freshBound
		if staleDeadline < heal && staleDeadline < n &&
			!anyTick(ticks, from, staleDeadline, func(r TickRecord) bool { return r.Fresh != nil && !r.Fresh[ev.Target] }) {
			out = append(out, fmt.Sprintf(
				"%s partitioned at %v (tick %d) never marked stale within %d ticks",
				ev.Target, ev.At, from, freshBound))
		}

		freshDeadline := heal + freshBound
		if heal < n && freshDeadline < n &&
			!anyTick(ticks, heal, freshDeadline, func(r TickRecord) bool { return r.Fresh[ev.Target] }) {
			out = append(out, fmt.Sprintf(
				"%s not fresh within %d ticks of partition heal at tick %d",
				ev.Target, freshBound, heal))
		}
	}
	return out
}

// clusterLookupAvailability checks the registry cluster's headline promise:
// a single member kill must not cost the consumer a single cached-cluster
// lookup once the detection bound has passed. The probe runs without flood
// fallback, so only replication (RF owners per key), lookup quorums, and the
// lease cache's stale window can absorb the loss — exactly the mechanisms
// under test. It only applies to cluster worlds.
func clusterLookupAvailability(w *World, events []Event) []string {
	if len(w.clusterNodes) == 0 {
		return nil
	}
	ticks := w.Ticks()
	var out []string
	for idx, ev := range events {
		if ev.Phase != PhaseInject || ev.Fault != FaultKillRegistryNode {
			continue
		}
		from, revive := tickOf(ev.At), endTick(events, idx, len(ticks))
		for i := from + clusterBound; i < revive; i++ {
			if !ticks[i].ClusterOK {
				out = append(out, fmt.Sprintf(
					"cluster lookup failed at tick %d with only %s down (killed at %v, tick %d)",
					i, ev.Target, ev.At, from))
			}
		}
	}
	return out
}

// clusterReplication checks anti-entropy's repair promise: once every member
// is back (the checker runs after Finish reverted all kills) and gossip has
// settled, every live registration must be held by all of its RF ring owners.
// A key still missing from an owner means a member death permanently shrank
// the replica set — repair never happened. It only applies to cluster worlds.
func clusterReplication(w *World, _ []Event) []string {
	nodes := w.clusterNodes
	if len(nodes) == 0 {
		return nil
	}
	// Give gossip a bounded, deterministic chance to finish in-flight repair:
	// the engine's Finish revived every member, so full-mesh rounds converge.
	w.SettleCluster()
	byID := make(map[string]*cluster.Node, len(nodes))
	for _, n := range nodes {
		byID[n.Self()] = n
	}
	ring := nodes[0].Ring()
	// The union of live keys across members is the replicated set; check each
	// against every owner the ring assigns it.
	seen := make(map[string]bool)
	var out []string
	for _, n := range nodes {
		for _, key := range n.Table().LiveKeys() {
			if seen[key] {
				continue
			}
			seen[key] = true
			for _, owner := range ring.Owners(key, replicationFactor) {
				if on := byID[owner]; on != nil && !on.Table().HasLive(key) {
					out = append(out, fmt.Sprintf(
						"key %s not replicated on owner %s after settle", key, owner))
				}
			}
		}
	}
	return out
}

// walReplayClean surfaces replay-fidelity violations recorded by wal-crash
// injections: a reopened WAL must reproduce every acknowledged operation.
func walReplayClean(w *World, _ []Event) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.walViolations...)
}

// tailCapture checks the wide-event plane's retention contract (it only
// applies to worlds built with Overload): a shed the consumer observed is,
// by construction, a deliberate server rejection — and the server records
// the wide event *before* it sends the rejection — so every client-observed
// shed must be present as a shed record in some supplier's tail ring.
// Sheds are always tail-worthy (never sampled) and the chaos recorders are
// sized so the ring cannot evict within a run, which makes the count exact:
// fewer retained sheds than observed sheds means the observability plane
// dropped an anomalous request. The reverse inequality is legal — a shed
// whose rejection the network ate is recorded server-side but reaches the
// client as a timeout.
//
// Each retained shed must also be attributable: a record without a topic or
// a shed reason is a violation on its own, because an exemplar an operator
// cannot act on is not an exemplar.
func tailCapture(w *World, _ []Event) []string {
	if len(w.reqlogs) == 0 {
		return nil
	}
	observed := 0
	for _, r := range w.Ticks() {
		observed += r.BulkShed
		if r.CtlShed {
			observed++
		}
	}
	retained := 0
	var out []string
	for id, recs := range w.ShedRecords() {
		for _, rec := range recs {
			retained++
			if rec.Topic == "" || rec.ShedReason == "" {
				out = append(out, fmt.Sprintf(
					"%s retained a shed record without attribution (topic=%q reason=%q)",
					id, rec.Topic, rec.ShedReason))
			}
		}
	}
	if retained < observed {
		out = append(out, fmt.Sprintf(
			"consumer observed %d sheds but supplier tail rings retain only %d",
			observed, retained))
	}
	return out
}

// alertLatency checks the alerting plane's detection promise (it only
// applies to worlds built with SLO): any injected fault that silences a
// supplier's telemetry — a partition or a crash — must drive the freshness
// objective for that supplier to critical within alertBound ticks of the
// inject. The engine's multi-window burn math needs the silence to fill both
// windows before paging, so the bound is wider than raw staleness marking;
// faults reverted before the deadline are skipped, like every detection
// invariant here — a short blip may legitimately never page.
func alertLatency(w *World, events []Event) []string {
	if w.sloEngine == nil {
		return nil
	}
	ticks := w.Ticks()
	n := len(ticks)
	var out []string
	for idx, ev := range events {
		if ev.Phase != PhaseInject || !slices.Contains(w.supplier, ev.Target) {
			continue
		}
		if ev.Fault != FaultPartition && ev.Fault != FaultCrashSupplier {
			continue
		}
		from := tickOf(ev.At)
		deadline := from + alertBound
		if deadline >= endTick(events, idx, n) || deadline >= n {
			continue // fault too short or too late in the run to judge
		}
		key := sloKey(FreshnessObjective, ev.Target)
		if !anyTick(ticks, from, deadline, func(r TickRecord) bool { return r.Alerts[key] >= slo.Critical }) {
			out = append(out, fmt.Sprintf(
				"%s of %s at %v (tick %d) never drove %s critical within %d ticks",
				ev.Fault, ev.Target, ev.At, from, FreshnessObjective, alertBound))
		}
	}
	return out
}

// priorityIsolation checks the admission controller's overload contract (it
// only applies to worlds built with Overload): the control lane's reserved
// slot means a control probe is never shed while the same supplier is
// admitting bulk traffic. A tick where the control probe came back shed AND
// any of that tick's bulk burst was admitted and served is a violation —
// the server had capacity, and spent it on lower-priority work.
//
// Sheds are judged, not raw failures: a control probe lost to the radio or
// a partition times out rather than sheds, so network faults cannot fake a
// violation.
func priorityIsolation(w *World, _ []Event) []string {
	var out []string
	for i, r := range w.Ticks() {
		if r.CtlShed && r.BulkAdmitted > 0 {
			out = append(out, fmt.Sprintf(
				"tick %d: control probe shed while %d bulk requests were admitted", i, r.BulkAdmitted))
		}
	}
	return out
}
