package endpoint

import (
	"sync"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/qos"
	"ndsm/internal/simtime"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// LaneConfig enables priority-lane admission control on a Server: per-lane
// reserved quotas carved out of MaxInFlight, a shared pool that low lanes
// borrow from and surrender first, and (with QueueDepth > 0) a deadline-aware
// waiting room per lane that sheds lowest-benefit work first under overload.
type LaneConfig struct {
	// Quota reserves in-flight slots per lane, subtracted from MaxInFlight;
	// the remainder is the shared pool any lane may borrow. Reserving slots
	// for LaneControl is what keeps a periodic control loop's admission
	// independent of bulk load. Quotas exceeding MaxInFlight are clamped.
	Quota map[Lane]int
	// QueueDepth is each lane's waiting room when no slot is free. Queued
	// work is served highest lane first, earliest deadline first within a
	// lane. A full queue preempts: the lowest-benefit entry of an equal or
	// lower lane is shed to make room (never a higher lane's work). 0 sheds
	// immediately on saturation, like the flat MaxInFlight bound.
	QueueDepth int
	// TopicLanes classifies requests that arrive without a HeaderLane stamp.
	TopicLanes map[string]Lane
}

// admitToken records which slot an admitted request occupies, so release
// returns it to the right pool. The zero token (held=false) marks a request
// dispatched without admission control.
type admitToken struct {
	rank     int
	reserved bool
	held     bool
}

// pending is one queued request waiting for a slot.
type pending struct {
	req  *wire.Message
	conn transport.Conn
	rank int
	enq  time.Time
}

// benefitAt scores a queued request's remaining worth in [0,1] with the
// paper's time-constraint benefit function: full benefit when fresh,
// decaying to zero as its wire deadline approaches — a request past its
// deadline is dead weight. Deadline-free work never decays (shed order among
// it falls back to lane, then age).
func (p *pending) benefitAt(now time.Time) float64 {
	if p.req.Deadline.IsZero() {
		return 1
	}
	window := p.req.Deadline.Sub(p.enq)
	if window <= 0 {
		return 0
	}
	return qos.Benefit{ZeroAfter: window}.At(now.Sub(p.enq))
}

// admitter is the server's admission controller: a fixed pool of in-flight
// slots split into per-lane reservations plus a shared remainder, and
// per-lane pending queues with benefit-aware preemptive shedding. It is the
// single owner of slot accounting — every admit has exactly one matching
// release, whichever branch sheds or dispatches the request.
type admitter struct {
	srv       *Server
	clock     simtime.Clock
	laneAware bool
	queueCap  int
	topicLane map[string]Lane

	mu        sync.Mutex
	closed    bool
	quota     [NumLanes]int
	reserved  [NumLanes]int // reserved slots in use, by rank
	shared    int           // shared slots in use
	sharedCap int
	queues    [NumLanes][]*pending // pending by rank

	admitted      [NumLanes]*obs.Counter
	shedLane      [NumLanes]*obs.Counter
	depth         [NumLanes]*obs.Gauge
	shedTotal     *obs.Counter
	shedExpired   *obs.Counter
	shedPreempted *obs.Counter
}

// newAdmitter builds the controller for a bounded server. capacity is
// MaxInFlight (or the quota sum when only lanes were configured); cfg nil
// gives the flat single-pool bound with its exact legacy semantics.
func newAdmitter(srv *Server, capacity int, cfg *LaneConfig, metricName string, reg *obs.Registry) *admitter {
	a := &admitter{
		srv:       srv,
		clock:     srv.clock,
		sharedCap: capacity,
		shedTotal: reg.Counter(metricName + ".shed"),
	}
	if cfg == nil {
		return a
	}
	a.laneAware = true
	a.queueCap = cfg.QueueDepth
	a.topicLane = cfg.TopicLanes
	for lane, q := range cfg.Quota {
		if q > 0 {
			a.quota[lane.rank()] += q
		}
	}
	for r := range a.quota {
		// Clamp: reservations can never exceed what remains of the pool.
		if a.quota[r] > a.sharedCap {
			a.quota[r] = a.sharedCap
		}
		a.sharedCap -= a.quota[r]
	}
	a.shedExpired = reg.Counter(metricName + ".shed.expired")
	a.shedPreempted = reg.Counter(metricName + ".shed.preempted")
	for r, lane := range laneByRank {
		prefix := metricName + ".lane." + lane.String()
		a.admitted[r] = reg.Counter(prefix + ".admitted")
		a.shedLane[r] = reg.Counter(prefix + ".shed")
		a.depth[r] = reg.Gauge(prefix + ".queued")
	}
	return a
}

// offer admits, queues, or sheds one inbound message. Admitted work is
// dispatched via Server.spawn with its slot token; sheds answer requests
// with a HeaderShed reject (one-way messages are dropped — no reply channel).
func (a *admitter) offer(req *wire.Message, conn transport.Conn) {
	r := LaneDefault.rank() // flat mode: everything shares one rank
	var now time.Time
	if a.laneAware {
		r = laneOf(req, a.topicLane).rank()
		now = a.clock.Now()
	}

	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	// Dead on arrival: a request already past its wire deadline has zero
	// benefit — shedding it before it occupies a slot is strictly better
	// than serving it. Lane mode only: the flat bound predates deadline
	// awareness and keeps its legacy semantics.
	if a.laneAware && !req.Deadline.IsZero() && now.After(req.Deadline) {
		a.mu.Unlock()
		a.shedExpired.Inc(1)
		a.countShed(r)
		a.srv.reject(req, conn, laneByRank[r], reasonExpiredAtAdmission, 0)
		return
	}
	if tok, ok := a.acquireLocked(r); ok {
		if a.laneAware {
			a.admitted[r].Inc(1)
		}
		a.mu.Unlock()
		a.srv.spawn(req, conn, tok, 0)
		return
	}
	if a.queueCap > 0 {
		if len(a.queues[r]) < a.queueCap {
			a.enqueueLocked(&pending{req: req, conn: conn, rank: r, enq: now})
			a.mu.Unlock()
			return
		}
		// Queue full: preempt the lowest-benefit entry of an equal or lower
		// lane — low lanes surrender borrowed room first, and decayed work
		// yields to fresh work. Higher lanes' entries are untouchable.
		if victim := a.preemptLocked(r, now); victim != nil {
			a.enqueueLocked(&pending{req: req, conn: conn, rank: r, enq: now})
			a.mu.Unlock()
			a.shedPreempted.Inc(1)
			a.countShed(victim.rank)
			a.srv.reject(victim.req, victim.conn, laneByRank[victim.rank], reasonPreempted, now.Sub(victim.enq))
			return
		}
	}
	a.mu.Unlock()
	a.countShed(r)
	a.srv.reject(req, conn, laneByRank[r], reasonAtCapacity, 0)
}

// countShed bumps the total and (lane mode) per-lane shed counters.
func (a *admitter) countShed(r int) {
	a.shedTotal.Inc(1)
	if a.laneAware {
		a.shedLane[r].Inc(1)
	}
}

func (a *admitter) enqueueLocked(p *pending) {
	a.queues[p.rank] = append(a.queues[p.rank], p)
	a.depth[p.rank].Set(float64(len(a.queues[p.rank])))
}

// acquireLocked takes a slot for rank r: its lane reservation first, then
// the shared pool.
func (a *admitter) acquireLocked(r int) (admitToken, bool) {
	if a.reserved[r] < a.quota[r] {
		a.reserved[r]++
		return admitToken{rank: r, reserved: true, held: true}, true
	}
	if a.shared < a.sharedCap {
		a.shared++
		return admitToken{rank: r, held: true}, true
	}
	return admitToken{}, false
}

// release returns a slot and promotes queued work: highest lane first,
// earliest deadline first within a lane, with entries that expired while
// queued shed as dead weight along the way. The single release path is what
// guarantees a slot cannot leak, whichever branch admitted it.
func (a *admitter) release(tok admitToken) {
	if !tok.held {
		return
	}
	var now time.Time
	if a.laneAware {
		now = a.clock.Now()
	}
	var runs []*pending
	var toks []admitToken
	var dead []*pending
	a.mu.Lock()
	if tok.reserved {
		a.reserved[tok.rank]--
	} else {
		a.shared--
	}
	if !a.closed {
		for {
			p, ptok, ok := a.promoteLocked(now, &dead)
			if !ok {
				break
			}
			runs = append(runs, p)
			toks = append(toks, ptok)
		}
	}
	a.mu.Unlock()
	for _, p := range dead {
		a.shedExpired.Inc(1)
		a.countShed(p.rank)
		a.srv.reject(p.req, p.conn, laneByRank[p.rank], reasonExpiredInQueue, now.Sub(p.enq))
	}
	for i, p := range runs {
		a.srv.spawn(p.req, p.conn, toks[i], now.Sub(p.enq))
	}
}

// promoteLocked pops the next queued entry to dispatch: lanes are scanned
// from highest rank, skipping lanes with neither reservation nor shared room
// left; within a lane the earliest-deadline entry goes first. Entries found
// expired are appended to dead (for the caller to reject outside the lock)
// without consuming a slot. ok=false means nothing more can be promoted.
func (a *admitter) promoteLocked(now time.Time, dead *[]*pending) (*pending, admitToken, bool) {
	for r := NumLanes - 1; r >= 0; r-- {
		if a.reserved[r] >= a.quota[r] && a.shared >= a.sharedCap {
			continue
		}
		for len(a.queues[r]) > 0 {
			q := a.queues[r]
			best := 0
			for i := 1; i < len(q); i++ {
				if pendingBefore(q[i], q[best]) {
					best = i
				}
			}
			p := q[best]
			a.queues[r] = append(q[:best], q[best+1:]...)
			a.depth[r].Set(float64(len(a.queues[r])))
			if !p.req.Deadline.IsZero() && now.After(p.req.Deadline) {
				*dead = append(*dead, p)
				continue
			}
			tok, _ := a.acquireLocked(r)
			a.admitted[r].Inc(1)
			return p, tok, true
		}
	}
	return nil, admitToken{}, false
}

// pendingBefore orders the promote scan: earlier deadlines first, any
// deadline before none, then older entries first.
func pendingBefore(x, y *pending) bool {
	xd, yd := x.req.Deadline, y.req.Deadline
	switch {
	case xd.IsZero() && yd.IsZero():
		return x.enq.Before(y.enq)
	case xd.IsZero():
		return false
	case yd.IsZero():
		return true
	case xd.Equal(yd):
		return x.enq.Before(y.enq)
	default:
		return xd.Before(yd)
	}
}

// preemptLocked removes and returns the queue entry to shed so a rank-r
// arrival can take its place: the lowest-benefit entry among lanes of rank
// ≤ r, ties broken toward lower lanes then older entries. Same-lane entries
// are only displaced once their benefit has actually decayed below full —
// fresh same-lane work tail-drops the arrival instead. Returns nil when
// nothing may be shed.
func (a *admitter) preemptLocked(r int, now time.Time) *pending {
	victimRank, victimIdx := -1, -1
	victimBenefit := 0.0
	for vr := 0; vr <= r; vr++ {
		for i, p := range a.queues[vr] {
			b := p.benefitAt(now)
			if vr == r && b >= 1 {
				continue // fresh same-lane work outranks a new arrival
			}
			if victimIdx == -1 || b < victimBenefit ||
				(b == victimBenefit && a.queues[victimRank][victimIdx].enq.After(p.enq)) {
				victimRank, victimIdx, victimBenefit = vr, i, b
			}
		}
	}
	if victimIdx == -1 {
		return nil
	}
	q := a.queues[victimRank]
	victim := q[victimIdx]
	a.queues[victimRank] = append(q[:victimIdx], q[victimIdx+1:]...)
	a.depth[victimRank].Set(float64(len(a.queues[victimRank])))
	return victim
}

// setQuota re-reserves rank r's lane quota at runtime, rebalancing against
// the shared pool so the capacity budget (quota sum + shared cap) is
// invariant: growth is funded by (and clamped to) the shared pool's cap,
// shrink returns slots to it. In-use accounting is untouched — a lane
// holding more reserved slots than its new quota simply admits nothing on
// reservation until it drains, and an over-committed shared pool drains the
// same way, so in-flight work may transiently exceed the bound by at most
// the widened amount until slots lent out before the change complete.
// That transient is the point during an incident: the widened lane admits
// *now*, not after bulk work finishes. Either direction can make
// promotion possible (growth frees the lane's reservation, shrink widens
// the pool), so queued work is drained exactly like a release. Returns the
// quota actually applied after clamping.
func (a *admitter) setQuota(r, quota int) int {
	if quota < 0 {
		quota = 0
	}
	now := a.clock.Now()
	var runs []*pending
	var toks []admitToken
	var dead []*pending
	a.mu.Lock()
	if a.closed {
		q := a.quota[r]
		a.mu.Unlock()
		return q
	}
	// The caller is not one of the server's goroutines, and promotion below
	// may start a worker: hold s.wg across it. a.mu orders this Add before
	// close(), which Server.Close calls before it waits.
	a.srv.wg.Add(1)
	defer a.srv.wg.Done()
	delta := quota - a.quota[r]
	if delta > a.sharedCap {
		delta = a.sharedCap
	}
	a.quota[r] += delta
	a.sharedCap -= delta
	applied := a.quota[r]
	for {
		p, ptok, ok := a.promoteLocked(now, &dead)
		if !ok {
			break
		}
		runs = append(runs, p)
		toks = append(toks, ptok)
	}
	a.mu.Unlock()
	for _, p := range dead {
		a.shedExpired.Inc(1)
		a.countShed(p.rank)
		a.srv.reject(p.req, p.conn, laneByRank[p.rank], reasonExpiredInQueue, now.Sub(p.enq))
	}
	for i, p := range runs {
		a.srv.spawn(p.req, p.conn, toks[i], now.Sub(p.enq))
	}
	return applied
}

// laneQuota reads rank r's current reservation.
func (a *admitter) laneQuota(r int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.quota[r]
}

// close drops every queued entry (the server is shutting down; their
// connections are closing anyway) and stops further promotion.
func (a *admitter) close() {
	a.mu.Lock()
	a.closed = true
	for r := range a.queues {
		a.queues[r] = nil
		if a.depth[r] != nil {
			a.depth[r].Set(0)
		}
	}
	a.mu.Unlock()
}
