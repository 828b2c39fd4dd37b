package discovery

import (
	"fmt"
	"sync"
	"time"

	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
)

// Mode names the organization an adaptive registry picked for an operation.
type Mode string

// Adaptive modes.
const (
	ModeCentral Mode = "central"
	ModeFlood   Mode = "flood"
)

// Policy decides which organization to use for the next operation, given
// the locally observable environment (§3.3: "allow the service discovery
// approach to adapt to the current environment, selecting a centralized or
// distributed approach based on some aspects of the network itself such as
// density or traffic").
type Policy func(env Env) Mode

// Env is what the adaptive registry can observe locally.
type Env struct {
	// Density is the node's current radio neighbour count.
	Density int
	// CentralHealthy reports whether the registry server answered recently.
	CentralHealthy bool
}

// DensityPolicy returns the default policy: a dense neighbourhood makes
// flooding expensive (every neighbour rebroadcasts), so prefer the central
// registry when it is healthy and the density is at or above threshold;
// otherwise flood — sparse floods are cheap and need no infrastructure.
func DensityPolicy(threshold int) Policy {
	return func(env Env) Mode {
		if !env.CentralHealthy {
			return ModeFlood
		}
		if env.Density >= threshold {
			return ModeCentral
		}
		return ModeFlood
	}
}

// Adaptive is the adaptive organization: it owns a centralized client and a
// distributed agent and routes each operation per policy, falling back to
// the other mode on failure. Registrations always go to both worlds — the
// local agent answers floods regardless of mode, and the central registry
// stays warm for when the policy flips.
type Adaptive struct {
	central   Resolver
	flood     *Agent
	policy    Policy
	densityFn func() int
	clock     simtime.Clock

	mu            sync.Mutex
	centralOK     bool
	lastProbe     time.Time
	probeInterval time.Duration
}

var _ Resolver = (*Adaptive)(nil)

// NewAdaptive builds an adaptive registry. densityFn reports the node's
// current radio density (e.g. closing over netsim.Network.Density). policy
// defaults to DensityPolicy(6).
func NewAdaptive(central Resolver, flood *Agent, densityFn func() int, policy Policy, clock simtime.Clock) *Adaptive {
	if policy == nil {
		policy = DensityPolicy(6)
	}
	clock = simtime.OrReal(clock)
	return &Adaptive{
		central:       central,
		flood:         flood,
		policy:        policy,
		densityFn:     densityFn,
		clock:         clock,
		centralOK:     true, // optimistic until proven otherwise
		probeInterval: 2 * time.Second,
	}
}

// env snapshots the observable environment.
func (a *Adaptive) env() Env {
	a.mu.Lock()
	healthy := a.centralOK
	a.mu.Unlock()
	density := 0
	if a.densityFn != nil {
		density = a.densityFn()
	}
	return Env{Density: density, CentralHealthy: healthy}
}

// markCentral records the health of the last central-registry exchange.
func (a *Adaptive) markCentral(ok bool) {
	a.mu.Lock()
	a.centralOK = ok
	a.lastProbe = a.clock.Now()
	a.mu.Unlock()
}

// shouldReprobe reports whether enough time has passed to retry an unhealthy
// central registry.
func (a *Adaptive) shouldReprobe() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return !a.centralOK && a.clock.Now().Sub(a.lastProbe) >= a.probeInterval
}

// Register implements Resolver: into the local flood store always, and into
// the central registry when reachable.
func (a *Adaptive) Register(d *svcdesc.Description) error {
	floodErr := a.flood.Register(d)
	var centralErr error
	if a.central != nil {
		centralErr = a.central.Register(d)
		a.markCentral(centralErr == nil)
	}
	if floodErr != nil && centralErr != nil {
		return fmt.Errorf("discovery: adaptive register failed everywhere: %w", centralErr)
	}
	return floodErr
}

// Unregister implements Resolver.
func (a *Adaptive) Unregister(key string) error {
	floodErr := a.flood.Unregister(key)
	if a.central != nil {
		if err := a.central.Unregister(key); err == nil {
			a.markCentral(true)
			return nil
		}
	}
	return floodErr
}

// Renew implements Resolver.
func (a *Adaptive) Renew(key string) error {
	floodErr := a.flood.Renew(key)
	if a.central != nil {
		if err := a.central.Renew(key); err == nil {
			a.markCentral(true)
			return nil
		}
	}
	return floodErr
}

// Lookup implements Resolver: policy picks the mode; failure falls back to
// the other mode and updates health.
func (a *Adaptive) Lookup(q *svcdesc.Query) ([]*svcdesc.Description, error) {
	mode := a.policy(a.env())
	if mode == ModeCentral && a.central == nil {
		mode = ModeFlood
	}
	// Periodically re-probe an unhealthy central registry so we notice
	// recovery.
	if mode == ModeFlood && a.central != nil && a.shouldReprobe() {
		if descs, err := a.central.Lookup(q); err == nil {
			a.markCentral(true)
			a.decided(string(ModeCentral))
			return descs, nil
		}
		a.markCentral(false)
	}

	switch mode {
	case ModeCentral:
		descs, err := a.central.Lookup(q)
		if err == nil {
			a.markCentral(true)
			if len(descs) > 0 {
				a.decided(string(ModeCentral))
				return descs, nil
			}
			// Healthy but empty: the server may just have expired every
			// lease (renewals lost, suppliers slow) while the suppliers
			// themselves are alive and answering floods. One flood round can
			// only add information — backfill from it, and return the
			// confirmed emptiness only if the flood agrees.
			a.decided("central_empty_flood")
			if fdescs, ferr := a.flood.Lookup(q); ferr == nil && len(fdescs) > 0 {
				return fdescs, nil
			}
			return descs, nil
		}
		a.markCentral(false)
		a.decided("central_failover")
		fallthrough
	default:
		descs, err := a.flood.Lookup(q)
		if err != nil {
			return nil, err
		}
		a.decided(string(ModeFlood))
		return descs, nil
	}
}

// decided counts a lookup by the mode that answered it, in the flood agent's
// node registry as "discovery.adaptive.<what>".
func (a *Adaptive) decided(what string) {
	a.flood.metrics.Counter("discovery.adaptive." + what).Inc(1)
}

// InvalidateProvider implements Invalidator, forwarding to the central side
// (the flood agent holds no cache to invalidate). A consumer stack like
// watched(adaptive(cached(cluster))) needs this hop or suspicion-driven
// invalidations would stop here and strand stale cache entries below.
func (a *Adaptive) InvalidateProvider(provider string) {
	if a.central != nil {
		Invalidate(a.central, provider)
	}
}

// Close implements Resolver.
func (a *Adaptive) Close() error {
	var firstErr error
	if a.central != nil {
		firstErr = a.central.Close()
	}
	if err := a.flood.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
