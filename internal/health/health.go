// Package health is the middleware's liveness layer: a per-peer failure
// detector feeding a per-peer circuit breaker, both driven entirely by an
// injected simtime.Clock so virtual-time tests exercise every timing path.
//
// The detector follows the phi-accrual design of Hayashibara et al.: instead
// of a binary alive/dead verdict it accrues suspicion continuously from the
// observed heartbeat inter-arrival distribution, so the threshold trades
// detection time against false positives explicitly. Heartbeats cost nothing
// extra — they piggyback on traffic the stack already generates (discovery
// lease renewals observed through lookup results, request replies), in the
// spirit of Chandra & Toueg's unreliable failure detectors: cheap, wrong
// sometimes, and useful anyway. A fixed-timeout fallback covers the cold
// start (too few samples for a meaningful distribution) and bounds detection
// time when the sampled mean drifts.
//
// The breaker (closed -> open -> half-open with a probe budget) converts
// suspicion and observed call failures into fail-fast behaviour: once a
// peer's circuit opens, callers get an immediate ErrOpen instead of burning
// a timeout on a peer that is almost certainly gone. After openTimeout the
// circuit admits a bounded number of probes; one success closes it.
//
// The thresholds and timeouts are package constants sized for heartbeats
// every Renewal, the lease renewals of the chaos world, the one program that
// builds a Monitor; a caller wires only the clock, the instrument registry
// and the tracer.
package health

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/trace"
)

// ErrOpen is returned by Allow while a peer's circuit is open (or its
// half-open probe budget is spent). Callers should fail fast, not retry.
var ErrOpen = errors.New("health: circuit open")

// State is a circuit breaker state.
type State int

// Breaker states.
const (
	// Closed passes all traffic (the healthy steady state).
	Closed State = iota
	// Open fails all traffic fast until openTimeout elapses.
	Open
	// HalfOpen admits up to halfOpenProbes trial calls; one success closes
	// the circuit, one failure re-opens it.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Renewal is the heartbeat cadence the detector and breaker constants are
// sized for: the chaos world, the one program that runs a Monitor, ticks and
// renews its suppliers' leases at it.
const Renewal = 50 * time.Millisecond

// The detector and breaker constants: a peer silent for 3.5 renewals is
// suspect whatever its phi, and an open circuit admits a probe after four.
const (
	// windowSize is the inter-arrival sample window per peer.
	windowSize = 16
	// minSamples is how many inter-arrival samples the phi estimate needs
	// before it participates in suspicion.
	minSamples = 3
	// phiThreshold is the suspicion level that marks a peer suspect (lower
	// detects faster but false-suspects more).
	phiThreshold = 3
	// fallbackTimeout is the fixed-timeout fallback: a peer whose last
	// heartbeat is older than this is suspect regardless of phi. It covers
	// the cold start before minSamples accrue and upper-bounds detection
	// time.
	fallbackTimeout = 7 * Renewal / 2
	// failureThreshold is how many consecutive call failures open a closed
	// circuit.
	failureThreshold = 2
	// openTimeout is how long an open circuit rejects everything before
	// admitting probes.
	openTimeout = 4 * Renewal
	// halfOpenProbes is the half-open trial budget.
	halfOpenProbes = 1
)

// Options wires a Monitor. The zero value is usable: real clock, counted
// and traced nowhere.
type Options struct {
	// Clock drives all detector and breaker timing (default real time).
	Clock simtime.Clock
	// Registry receives transition counters, named "health.*" (nil: counted
	// nowhere).
	Registry *obs.Registry
	// Tracer records liveness events (heartbeats, suspicion flips, breaker
	// transitions) as zero-length spans on the timeline. Nil records
	// nothing.
	Tracer *trace.Tracer
}

// peerState is one peer's detector window plus breaker machine.
type peerState struct {
	// Detector: last heartbeat and the inter-arrival sample ring.
	last      time.Time
	hasLast   bool
	intervals []float64 // milliseconds
	next      int
	n         int
	sum       float64
	suspected bool // last verdict, for transition counting

	// Breaker.
	state    State
	fails    int
	openedAt time.Time
	probes   int
}

// Monitor tracks liveness per peer: heartbeat arrivals feed the phi-accrual
// detector, call outcomes feed the circuit breaker, and Suspect/Allow expose
// the combined verdict. Safe for concurrent use.
type Monitor struct {
	opts Options

	mu    sync.Mutex
	peers map[string]*peerState

	heartbeats *obs.Counter
	suspicions *obs.Counter
	opened     *obs.Counter
	halfOpened *obs.Counter
	closedC    *obs.Counter
	suspectedG *obs.Gauge
}

// NewMonitor builds a monitor.
func NewMonitor(opts Options) *Monitor {
	opts.Clock = simtime.OrReal(opts.Clock)
	r := opts.Registry
	return &Monitor{
		opts:       opts,
		peers:      make(map[string]*peerState),
		heartbeats: r.Counter("health.heartbeats"),
		suspicions: r.Counter("health.suspicions"),
		opened:     r.Counter("health.breaker_opened"),
		halfOpened: r.Counter("health.breaker_half_opened"),
		closedC:    r.Counter("health.breaker_closed"),
		suspectedG: r.Gauge("health.suspected"),
	}
}

func (m *Monitor) peer(name string) *peerState {
	ps := m.peers[name]
	if ps == nil {
		ps = &peerState{intervals: make([]float64, windowSize)}
		m.peers[name] = ps
	}
	return ps
}

// Heartbeat records a proof of life from peer (a lease renewal seen in a
// lookup result, a reply, any message) at the monitor clock's current time.
func (m *Monitor) Heartbeat(peer string) {
	if peer == "" {
		return
	}
	now := m.opts.Clock.Now()
	m.mu.Lock()
	m.heartbeatLocked(m.peer(peer), now)
	m.mu.Unlock()
	m.heartbeats.Inc(1)
	m.opts.Tracer.Event("health.heartbeat", "peer", peer)
}

func (m *Monitor) heartbeatLocked(ps *peerState, now time.Time) {
	if ps.hasLast {
		dt := now.Sub(ps.last)
		if dt > 0 {
			v := float64(dt) / float64(time.Millisecond)
			if ps.n == len(ps.intervals) {
				ps.sum -= ps.intervals[ps.next]
			} else {
				ps.n++
			}
			ps.intervals[ps.next] = v
			ps.sum += v
			ps.next = (ps.next + 1) % len(ps.intervals)
		}
	}
	ps.last = now
	ps.hasLast = true
}

// phiLocked is the peer's current suspicion level: 0 for a peer heard from
// just now, growing without bound as silence stretches past the sampled
// inter-arrival mean. Following the exponential approximation used by
// production phi-accrual implementations, phi = elapsed / (mean * ln 10).
func (m *Monitor) phiLocked(ps *peerState, now time.Time) float64 {
	if !ps.hasLast || ps.n == 0 {
		return 0
	}
	mean := ps.sum / float64(ps.n)
	if mean <= 0 {
		return 0
	}
	elapsed := float64(now.Sub(ps.last)) / float64(time.Millisecond)
	if elapsed <= 0 {
		return 0
	}
	return elapsed / (mean * math.Ln10)
}

// Suspect reports whether the peer is currently suspected dead: its circuit
// is open, its phi exceeds the threshold (once enough samples accrued), or
// its silence exceeds the fixed-timeout fallback. A peer never heard from is
// not suspect — suspicion needs evidence of prior life.
func (m *Monitor) Suspect(peer string) bool {
	now := m.opts.Clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := m.peers[peer]
	if ps == nil {
		return false
	}
	verdict := m.suspectLocked(ps, now)
	if verdict != ps.suspected {
		ps.suspected = verdict
		if verdict {
			m.suspicions.Inc(1)
			m.suspectedG.Add(1)
			m.opts.Tracer.Event("health.suspected", "peer", peer,
				"phi", fmt.Sprintf("%.2f", m.phiLocked(ps, now)))
		} else {
			m.suspectedG.Add(-1)
			m.opts.Tracer.Event("health.recovered", "peer", peer)
		}
	}
	return verdict
}

func (m *Monitor) suspectLocked(ps *peerState, now time.Time) bool {
	if ps.state == Open {
		return true
	}
	if !ps.hasLast {
		return false
	}
	elapsed := now.Sub(ps.last)
	if elapsed > fallbackTimeout {
		return true
	}
	return ps.n >= minSamples && m.phiLocked(ps, now) > phiThreshold
}

// Allow asks the peer's circuit breaker whether a call may proceed: nil when
// closed (or when a half-open probe slot is free), ErrOpen otherwise. Every
// allowed call must be concluded with ReportSuccess or ReportFailure.
func (m *Monitor) Allow(peer string) error {
	now := m.opts.Clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := m.peer(peer)
	if ps.state == Open {
		if now.Sub(ps.openedAt) < openTimeout {
			return ErrOpen
		}
		ps.state = HalfOpen
		ps.probes = 0
		m.halfOpened.Inc(1)
		m.opts.Tracer.Event("health.breaker_half_open", "peer", peer)
	}
	if ps.state == HalfOpen {
		if ps.probes >= halfOpenProbes {
			return ErrOpen
		}
		ps.probes++
	}
	return nil
}

// ReportSuccess concludes a call that reached the peer and got an answer. It
// closes the circuit and, because an answer is proof of life, also counts as
// a heartbeat.
func (m *Monitor) ReportSuccess(peer string) {
	if peer == "" {
		return
	}
	now := m.opts.Clock.Now()
	m.mu.Lock()
	ps := m.peer(peer)
	ps.fails = 0
	if ps.state != Closed {
		ps.state = Closed
		m.closedC.Inc(1)
		m.opts.Tracer.Event("health.breaker_closed", "peer", peer)
	}
	m.heartbeatLocked(ps, now)
	m.mu.Unlock()
	m.heartbeats.Inc(1)
}

// ReportFailure concludes a call that failed at the transport level. A
// half-open probe failure re-opens the circuit immediately; failureThreshold
// consecutive failures open a closed one.
func (m *Monitor) ReportFailure(peer string) {
	if peer == "" {
		return
	}
	now := m.opts.Clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := m.peer(peer)
	ps.fails++
	switch ps.state {
	case HalfOpen:
		ps.state = Open
		ps.openedAt = now
		m.opened.Inc(1)
		m.opts.Tracer.Event("health.breaker_open", "peer", peer)
	case Closed:
		if ps.fails >= failureThreshold {
			ps.state = Open
			ps.openedAt = now
			m.opened.Inc(1)
			m.opts.Tracer.Event("health.breaker_open", "peer", peer)
		}
	}
}

// State returns the peer's breaker state (Closed for unknown peers).
func (m *Monitor) State(peer string) State {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := m.peers[peer]
	if ps == nil {
		return Closed
	}
	return ps.state
}

// PeerStatus is one peer's combined liveness verdict, as reported by Status
// (and served by the webbridge's /healthz endpoint).
type PeerStatus struct {
	Peer      string  `json:"peer"`
	Suspected bool    `json:"suspected"`
	Phi       float64 `json:"phi"`
	Breaker   string  `json:"breaker"`
}

// Status snapshots every tracked peer's detector and breaker state, sorted
// by peer name for stable output.
func (m *Monitor) Status() []PeerStatus {
	now := m.opts.Clock.Now()
	m.mu.Lock()
	out := make([]PeerStatus, 0, len(m.peers))
	for name, ps := range m.peers {
		out = append(out, PeerStatus{
			Peer:      name,
			Suspected: m.suspectLocked(ps, now),
			Phi:       m.phiLocked(ps, now),
			Breaker:   ps.state.String(),
		})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
