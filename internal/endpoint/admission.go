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
}

// admitToken records which slot an admitted request occupies, so release
// returns it to the right pool. The zero token (held=false) marks a request
// dispatched without admission control.
type admitToken struct {
	rank     int
	reserved bool
	held     bool
}

// pending is one queued request waiting for a slot. Queues hold entries by
// value, so queueing allocates nothing once a queue has grown.
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

// dispatcher carries out the admitter's decisions: the Server, or a recorder
// in the model tests.
type dispatcher interface {
	spawn(req *wire.Message, conn transport.Conn, tok admitToken, wait time.Duration)
	reject(req *wire.Message, conn transport.Conn, lane Lane, reason *shedReason, wait time.Duration)
}

// admitter is the server's admission controller: a fixed pool of in-flight
// slots split into per-lane reservations plus a shared remainder, and
// per-lane pending queues with benefit-aware preemptive shedding. It is the
// single owner of slot accounting — every admit has exactly one matching
// release, whichever branch sheds or dispatches the request.
type admitter struct {
	srv       dispatcher
	wg        *sync.WaitGroup // the server's, held while setQuota may spawn
	clock     simtime.Clock
	laneAware bool
	queueCap  int

	mu        sync.Mutex
	closed    bool
	quota     [NumLanes]int
	reserved  [NumLanes]int // reserved slots in use, by rank
	shared    int           // shared slots in use
	sharedCap int
	queues    [NumLanes][]pending // pending by rank; vacated slots are zeroed

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
		wg:        &srv.wg,
		clock:     srv.clock,
		sharedCap: capacity,
		shedTotal: reg.Counter(metricName + ".shed"),
	}
	if cfg == nil {
		return a
	}
	a.laneAware = true
	a.queueCap = cfg.QueueDepth
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
// with a KindShed reply (one-way messages are dropped — no reply channel).
func (a *admitter) offer(req *wire.Message, conn transport.Conn) {
	r := LaneDefault.rank() // flat mode: everything shares one rank
	var now time.Time
	if a.laneAware {
		r = laneOf(req).rank()
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
		p := pending{req: req, conn: conn, rank: r, enq: now}
		if len(a.queues[r]) < a.queueCap {
			a.enqueueLocked(p)
			a.mu.Unlock()
			return
		}
		// Queue full: preempt the lowest-benefit entry of an equal or lower
		// lane — low lanes surrender borrowed room first, and decayed work
		// yields to fresh work. Higher lanes' entries are untouchable.
		if victim, ok := a.preemptLocked(r, now); ok {
			a.enqueueLocked(p)
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

func (a *admitter) enqueueLocked(p pending) {
	a.queues[p.rank] = append(a.queues[p.rank], p)
	a.depth[p.rank].Set(float64(len(a.queues[p.rank])))
}

// removeLocked takes entry i out of rank r's queue, keeping the rest in
// arrival order, and zeroes the vacated slot so the queue pins no message.
func (a *admitter) removeLocked(r, i int) pending {
	q := a.queues[r]
	p := q[i]
	copy(q[i:], q[i+1:])
	q[len(q)-1] = pending{}
	a.queues[r] = q[:len(q)-1]
	a.depth[r].Set(float64(len(a.queues[r])))
	return p
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

// release returns a slot and promotes queued work onto it. The single
// release path is what guarantees a slot cannot leak, whichever branch
// admitted it.
func (a *admitter) release(tok admitToken) {
	if !tok.held {
		return
	}
	var now time.Time
	if a.laneAware {
		now = a.clock.Now()
	}
	a.mu.Lock()
	if tok.reserved {
		a.reserved[tok.rank]--
	} else {
		a.shared--
	}
	a.promoteAndUnlock(now)
}

// promoteAndUnlock fills free slots from the queues, unlocks a.mu, then sheds
// the entries found expired along the way and dispatches the promoted ones.
// Both lists start in arrays on the stack: a release frees one slot, so only a
// quota change that frees several can outgrow them.
func (a *admitter) promoteAndUnlock(now time.Time) {
	var runBuf [4]task
	var deadBuf [4]pending
	runs, dead := runBuf[:0], deadBuf[:0]
	for !a.closed {
		p, tok, ok := a.promoteLocked(now)
		if !ok {
			break
		}
		if tok.held {
			runs = append(runs, task{req: p.req, conn: p.conn, tok: tok, wait: now.Sub(p.enq)})
		} else {
			dead = append(dead, p)
		}
	}
	a.mu.Unlock()
	for _, p := range dead {
		a.shedExpired.Inc(1)
		a.countShed(p.rank)
		a.srv.reject(p.req, p.conn, laneByRank[p.rank], reasonExpiredInQueue, now.Sub(p.enq))
	}
	for _, t := range runs {
		a.srv.spawn(t.req, t.conn, t.tok, t.wait)
	}
}

// promoteLocked pops the next queued entry to settle: lanes are scanned from
// highest rank, skipping lanes with neither reservation nor shared room left;
// within a lane the earliest-deadline entry goes first. An entry past its
// deadline comes back without a slot (tok.held false), to be shed as dead
// weight. ok=false means nothing more can be promoted.
func (a *admitter) promoteLocked(now time.Time) (p pending, tok admitToken, ok bool) {
	for r := NumLanes - 1; r >= 0; r-- {
		q := a.queues[r]
		if len(q) == 0 || a.reserved[r] >= a.quota[r] && a.shared >= a.sharedCap {
			continue
		}
		best := 0
		for i := 1; i < len(q); i++ {
			if pendingBefore(&q[i], &q[best]) {
				best = i
			}
		}
		p = a.removeLocked(r, best)
		if !p.req.Deadline.IsZero() && now.After(p.req.Deadline) {
			return p, admitToken{}, true
		}
		tok, _ = a.acquireLocked(r)
		a.admitted[r].Inc(1)
		return p, tok, true
	}
	return pending{}, admitToken{}, false
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
// ≤ r, ties broken toward lower lanes, then older entries. Same-lane entries
// are only displaced once their benefit has actually decayed below full —
// fresh same-lane work tail-drops the arrival instead. ok=false means nothing
// may be shed.
func (a *admitter) preemptLocked(r int, now time.Time) (victim pending, ok bool) {
	victimRank, victimIdx := -1, -1
	victimBenefit := 0.0
	for vr := 0; vr <= r; vr++ {
		for i := range a.queues[vr] {
			p := &a.queues[vr][i]
			b := p.benefitAt(now)
			if vr == r && b >= 1 {
				continue // fresh same-lane work outranks a new arrival
			}
			// Lanes are scanned lowest first, so an equal benefit displaces
			// the choice only within its lane, and only if older.
			if victimIdx == -1 || b < victimBenefit ||
				(b == victimBenefit && vr == victimRank && p.enq.Before(a.queues[vr][victimIdx].enq)) {
				victimRank, victimIdx, victimBenefit = vr, i, b
			}
		}
	}
	if victimIdx == -1 {
		return pending{}, false
	}
	return a.removeLocked(victimRank, victimIdx), true
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
	a.mu.Lock()
	if a.closed {
		q := a.quota[r]
		a.mu.Unlock()
		return q
	}
	// The caller is not one of the server's goroutines, and promotion below
	// may start a worker: hold s.wg across it. a.mu orders this Add before
	// close(), which Server.Close calls before it waits.
	a.wg.Add(1)
	defer a.wg.Done()
	delta := quota - a.quota[r]
	if delta > a.sharedCap {
		delta = a.sharedCap
	}
	a.quota[r] += delta
	a.sharedCap -= delta
	applied := a.quota[r]
	a.promoteAndUnlock(now)
	return applied
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
