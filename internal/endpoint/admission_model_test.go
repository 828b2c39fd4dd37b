package endpoint

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/qos"
	"ndsm/internal/simtime"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// decision is one thing an admitter did with a request: ran it on a slot
// (run, with its token) or shed it, charged to a lane, for a reason.
type decision struct {
	id     uint64
	run    bool
	tok    admitToken
	rank   int
	reason *shedReason
	wait   time.Duration
}

func (d decision) String() string {
	if d.run {
		return fmt.Sprintf("run #%d %+v after %v", d.id, d.tok, d.wait)
	}
	return fmt.Sprintf("shed #%d rank %d (%s) after %v", d.id, d.rank, d.reason.text, d.wait)
}

// recorder is the dispatcher the model tests put behind an admitter: it
// writes down each decision instead of carrying it out, and poisons the
// request as the server recycles it, so a message handed out twice shows.
type recorder struct {
	got   []decision
	twice []uint64
}

func (r *recorder) handOff(req *wire.Message, d decision) {
	if req.Topic == "recycled" {
		r.twice = append(r.twice, req.ID)
	}
	req.Topic = "recycled"
	r.got = append(r.got, d)
}

func (r *recorder) spawn(req *wire.Message, _ transport.Conn, tok admitToken, wait time.Duration) {
	r.handOff(req, decision{id: req.ID, run: true, tok: tok, rank: tok.rank, wait: wait})
}

func (r *recorder) reject(req *wire.Message, _ transport.Conn, lane Lane, reason *shedReason, wait time.Duration) {
	r.handOff(req, decision{id: req.ID, rank: lane.rank(), reason: reason, wait: wait})
}

// admEntry is a queued request as the model keeps it: one list for every
// lane, in arrival order.
type admEntry struct {
	id            uint64
	rank          int
	deadline, enq time.Time
}

func (e admEntry) benefit(now time.Time) float64 {
	if e.deadline.IsZero() {
		return 1
	}
	window := e.deadline.Sub(e.enq)
	if window <= 0 {
		return 0
	}
	return qos.Benefit{ZeroAfter: window}.At(now.Sub(e.enq))
}

// admModel is the reference the admitter is checked against: LaneConfig's
// documented rules, played over plain counters and one arrival-ordered list,
// each choice made by an explicit sort key.
type admModel struct {
	laneAware bool
	queueCap  int
	quota     [NumLanes]int
	reserved  [NumLanes]int
	shared    int
	sharedCap int
	queued    []admEntry
	closed    bool
	out       []decision
}

func (m *admModel) take(r int) (admitToken, bool) {
	switch {
	case m.reserved[r] < m.quota[r]:
		m.reserved[r]++
		return admitToken{rank: r, reserved: true, held: true}, true
	case m.shared < m.sharedCap:
		m.shared++
		return admitToken{rank: r, held: true}, true
	}
	return admitToken{}, false
}

func (m *admModel) queuedIn(r int) int {
	n := 0
	for _, e := range m.queued {
		if e.rank == r {
			n++
		}
	}
	return n
}

// less orders two keys of equal length lexicographically.
func less(x, y []float64) bool {
	for i := range x {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// pick returns the index of the queued entry with the least key, -1 if key
// declines every entry.
func (m *admModel) pick(key func(i int, e admEntry) []float64) int {
	best := -1
	var bestKey []float64
	for i, e := range m.queued {
		if k := key(i, e); k != nil && (best == -1 || less(k, bestKey)) {
			best, bestKey = i, k
		}
	}
	return best
}

func (m *admModel) remove(i int) admEntry {
	e := m.queued[i]
	m.queued = append(m.queued[:i:i], m.queued[i+1:]...)
	return e
}

func (m *admModel) shed(e admEntry, reason *shedReason, now time.Time) {
	m.out = append(m.out, decision{id: e.id, rank: e.rank, reason: reason, wait: now.Sub(e.enq)})
}

func (m *admModel) offer(e admEntry, now time.Time) {
	switch {
	case m.closed:
	case m.laneAware && !e.deadline.IsZero() && now.After(e.deadline):
		m.shed(admEntry{id: e.id, rank: e.rank, enq: now}, reasonExpiredAtAdmission, now)
	default:
		if tok, ok := m.take(e.rank); ok {
			m.out = append(m.out, decision{id: e.id, run: true, tok: tok, rank: e.rank})
			return
		}
		if m.queueCap == 0 {
			m.shed(admEntry{id: e.id, rank: e.rank, enq: now}, reasonAtCapacity, now)
			return
		}
		if m.queuedIn(e.rank) < m.queueCap {
			m.queued = append(m.queued, e)
			return
		}
		// Least benefit, then lowest lane, then oldest; never a higher lane,
		// and the arrival's own lane only once decayed.
		v := m.pick(func(i int, q admEntry) []float64 {
			b := q.benefit(now)
			if q.rank > e.rank || q.rank == e.rank && b >= 1 {
				return nil
			}
			return []float64{b, float64(q.rank), float64(q.enq.UnixNano()), float64(i)}
		})
		if v == -1 {
			m.shed(admEntry{id: e.id, rank: e.rank, enq: now}, reasonAtCapacity, now)
			return
		}
		victim := m.remove(v)
		m.queued = append(m.queued, e)
		m.shed(victim, reasonPreempted, now)
	}
}

// promote fills free slots after a release or a quota change: the highest
// lane with room first, its earliest deadline first (none is latest), then
// oldest. Expired entries are shed before anything promoted is run.
func (m *admModel) promote(now time.Time) {
	var runs []decision
	for !m.closed {
		v := m.pick(func(i int, q admEntry) []float64 {
			if m.reserved[q.rank] >= m.quota[q.rank] && m.shared >= m.sharedCap {
				return nil
			}
			dl := float64(q.deadline.UnixNano())
			if q.deadline.IsZero() {
				dl = 1e300
			}
			return []float64{float64(-q.rank), dl, float64(q.enq.UnixNano()), float64(i)}
		})
		if v == -1 {
			break
		}
		e := m.remove(v)
		if !e.deadline.IsZero() && now.After(e.deadline) {
			m.shed(e, reasonExpiredInQueue, now)
			continue
		}
		tok, _ := m.take(e.rank)
		runs = append(runs, decision{id: e.id, run: true, tok: tok, rank: e.rank, wait: now.Sub(e.enq)})
	}
	m.out = append(m.out, runs...)
}

func (m *admModel) release(tok admitToken, now time.Time) {
	if tok.reserved {
		m.reserved[tok.rank]--
	} else {
		m.shared--
	}
	m.promote(now)
}

func (m *admModel) setQuota(r, quota int, now time.Time) int {
	if m.closed {
		return m.quota[r]
	}
	delta := max(quota, 0) - m.quota[r]
	delta = min(delta, m.sharedCap)
	m.quota[r] += delta
	m.sharedCap -= delta
	m.promote(now)
	return m.quota[r]
}

const admOpBytes = 3

// runAdmitterModel decodes data into a server shape and a list of operations,
// plays them into an admitter and the model, and after every operation
// compares what each did and audits the admitter's state and the invariants.
func runAdmitterModel(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	capacity := 1 + int(data[0]%4)
	flat := data[0]>>5 == 0 // one list in eight runs the flat bound
	var cfg *LaneConfig
	if !flat {
		cfg = &LaneConfig{
			QueueDepth: int(data[1] % 4),
			Quota: map[Lane]int{
				LaneControl: int(data[2] % 3),
				LaneBulk:    int(data[2] >> 2 % 2),
				LaneDefault: int(data[2] >> 3 % 2),
			},
		}
	}
	clock := simtime.NewVirtual(time.Unix(1000, 0))
	reg := obs.NewRegistry()
	a := newAdmitter(&Server{clock: clock}, capacity, cfg, "m", reg)
	rec := &recorder{}
	a.srv = rec
	m := &admModel{laneAware: !flat, quota: a.quota, sharedCap: a.sharedCap}
	if !flat {
		m.queueCap = cfg.QueueDepth
	}

	var nextID uint64
	resolved := map[uint64]bool{} // every offer, true once run, shed or dropped
	var held []admitToken         // run and not yet released
	quotaChanged := false         // a quota change may over-commit a pool
	over := 0                     // slots in use beyond their pools' bounds
	ops := data[3:]
	for step := 0; len(ops) >= admOpBytes; step, ops = step+1, ops[admOpBytes:] {
		op, b1, b2 := ops[0]%8, ops[1], ops[2]
		var now time.Time
		if !flat {
			now = clock.Now()
		}
		rec.got, m.out = rec.got[:0], m.out[:0]
		overBefore := over
		what, lends := "", false
		switch {
		case op <= 3: // offer
			nextID++
			msg := &wire.Message{ID: nextID, Kind: wire.KindRequest, Topic: "work"}
			// Stamped with each lane, or unstamped, which reads as default.
			rank := LaneDefault.rank()
			if lane := b1 % 4; lane < 3 {
				msg.Priority = laneByRank[lane].priority()
				rank = int(lane)
			}
			if flat {
				rank = LaneDefault.rank()
			}
			switch b2 % 4 {
			case 1:
				msg.Deadline = clock.Now().Add(-time.Millisecond)
			case 2:
				msg.Deadline = clock.Now().Add(time.Duration(1+b2>>2%8) * time.Millisecond)
			case 3:
				msg.Deadline = clock.Now().Add(50 * time.Millisecond)
			}
			resolved[msg.ID] = false
			what = fmt.Sprintf("offer #%d rank %d", msg.ID, rank)
			if !msg.Deadline.IsZero() {
				what += fmt.Sprintf(" due in %v", msg.Deadline.Sub(clock.Now()))
			}
			e := admEntry{id: msg.ID, rank: rank, deadline: msg.Deadline, enq: now}
			a.offer(msg, nil)
			m.offer(e, now)
			if m.closed {
				resolved[msg.ID] = true // dropped on close
			}
		case op == 4: // release
			if len(held) == 0 {
				continue
			}
			i := int(b1) % len(held)
			tok := held[i]
			held = append(held[:i], held[i+1:]...)
			what = fmt.Sprintf("release %+v", tok)
			a.release(tok)
			m.release(tok, now)
		case op == 5: // deadlines pass
			clock.Advance(time.Duration(b1%32) * 500 * time.Microsecond)
			continue
		case op == 6: // quota change
			if flat {
				continue
			}
			r, q := int(b1%3), int(b2%5)
			what = fmt.Sprintf("setQuota(%d, %d)", r, q)
			got, want := a.setQuota(r, q), m.setQuota(r, q, now)
			if got != want {
				t.Fatalf("step %d %s: applied %d, model %d", step, what, got, want)
			}
			quotaChanged, lends = true, true
		default: // close, rarely
			if b1%8 != 0 {
				continue
			}
			what = "close"
			a.close()
			m.closed = true
			for _, e := range m.queued {
				resolved[e.id] = true // dropped on close
			}
			m.queued = nil
		}

		if len(rec.twice) > 0 {
			t.Fatalf("step %d %s: requests %v handed out twice", step, what, rec.twice)
		}
		if fmt.Sprint(rec.got) != fmt.Sprint(m.out) {
			t.Fatalf("step %d %s:\n admitter %v\n model    %v", step, what, rec.got, m.out)
		}
		controlShed, bulkRun := false, false
		for _, d := range rec.got {
			if resolved[d.id] {
				t.Fatalf("step %d %s: request #%d resolved a second time (%v)", step, what, d.id, d)
			}
			resolved[d.id] = true
			if d.run {
				held = append(held, d.tok)
				bulkRun = bulkRun || d.rank == LaneBulk.rank()
			} else if d.rank == LaneControl.rank() && d.reason != reasonExpiredAtAdmission && d.reason != reasonExpiredInQueue {
				controlShed = true
			}
		}
		if controlShed && bulkRun {
			t.Fatalf("step %d %s: control shed while bulk was admitted: %v", step, what, rec.got)
		}
		at := fmt.Sprintf("step %d %s", step, what)
		over = auditAdmitter(t, at, a, m, held, resolved, capacity, quotaChanged)
		if over > overBefore && !lends {
			t.Fatalf("%s: %d slots over their pools' bounds, %d before: an admission overran its pool", at, over, overBefore)
		}
	}
}

// auditAdmitter checks the admitter's state against the model and the
// invariants, and returns the slots now in use beyond their pools' bounds.
func auditAdmitter(t *testing.T, at string, a *admitter, m *admModel,
	held []admitToken, resolved map[uint64]bool, capacity int, quotaChanged bool) int {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.quota != m.quota || a.reserved != m.reserved || a.shared != m.shared || a.sharedCap != m.sharedCap {
		t.Fatalf("%s: quota %v reserved %v shared %d/%d, model %v %v %d/%d", at,
			a.quota, a.reserved, a.shared, a.sharedCap, m.quota, m.reserved, m.shared, m.sharedCap)
	}
	// Slot accounting: what is held is what the pools count, and in flight
	// stays within capacity except by what a quota change lent out (the
	// caller checks that no admission adds to it).
	inFlight, over := a.shared, max(0, a.shared-a.sharedCap)
	for r := range a.reserved {
		inFlight += a.reserved[r]
		over += max(0, a.reserved[r]-a.quota[r])
	}
	if inFlight != len(held) {
		t.Fatalf("%s: pools count %d slots in use, %d tokens are held", at, inFlight, len(held))
	}
	if !quotaChanged && inFlight > capacity {
		t.Fatalf("%s: %d in flight, capacity %d", at, inFlight, capacity)
	}
	// Queues: the model's entries, lane by lane in arrival order, each still
	// unresolved, and every vacated slot zeroed.
	queued := 0
	for r, q := range a.queues {
		var want []uint64
		for _, e := range m.queued {
			if e.rank == r {
				want = append(want, e.id)
			}
		}
		var got []uint64
		for _, p := range q {
			got = append(got, p.req.ID)
			if resolved[p.req.ID] {
				t.Fatalf("%s: resolved request #%d is still queued", at, p.req.ID)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: rank %d queue %v, model %v", at, r, got, want)
		}
		for _, p := range q[len(q):cap(q)] {
			if p != (pending{}) {
				t.Fatalf("%s: rank %d keeps a vacated entry for #%d", at, r, p.req.ID)
			}
		}
		if m.laneAware && a.depth[r].Value() != float64(len(q)) {
			t.Fatalf("%s: rank %d depth gauge %v, queue %d", at, r, a.depth[r].Value(), len(q))
		}
		queued += len(q)
	}
	// Exactly once: every offer is resolved or still waiting in a queue.
	unresolved := 0
	for _, done := range resolved {
		if !done {
			unresolved++
		}
	}
	if unresolved != queued {
		t.Fatalf("%s: %d offers unresolved, %d queued", at, unresolved, queued)
	}
	// A control arrival is never turned away while bulk work waits.
	if len(a.queues[LaneBulk.rank()]) > 0 {
		for _, d := range m.out {
			if !d.run && d.rank == LaneControl.rank() && d.reason == reasonAtCapacity {
				t.Fatalf("%s: control shed at capacity with bulk queued", at)
			}
		}
	}
	return over
}

// FuzzAdmitterMatchesModel model-checks the admitter. The seed corpus is in
// testdata/fuzz.
func FuzzAdmitterMatchesModel(f *testing.F) {
	f.Add([]byte{0x21, 1, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 4, 0, 0})
	f.Fuzz(runAdmitterModel)
}

// TestAdmitterMatchesModelProperty runs the same check over seeded random
// operation lists, so a plain `go test` covers what the fuzzer explores.
func TestAdmitterMatchesModelProperty(t *testing.T) {
	sequences := 3000
	if testing.Short() {
		sequences = 300
	}
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < sequences; i++ {
		data := make([]byte, 3+admOpBytes*rng.Intn(80))
		rng.Read(data)
		runAdmitterModel(t, data)
	}
}

// A request that is queued and then promoted onto a released slot allocates
// nothing in the admitter: its queue entry is held by value in a queue that
// has already grown, and the promotion is collected on the stack. (A pending
// entry and the release's three slices were four objects.)
func TestQueuedPromotionAllocs(t *testing.T) {
	a := newAdmitter(&Server{clock: simtime.NewVirtual(time.Unix(1000, 0))}, 1, &LaneConfig{QueueDepth: 4}, "m", obs.NewRegistry())
	rec := &recorder{}
	a.srv = rec
	msgs := [2]*wire.Message{{ID: 1, Kind: wire.KindRequest}, {ID: 2, Kind: wire.KindRequest, Priority: LaneBulk.priority()}}
	a.offer(msgs[0], nil)
	tok, i := rec.got[0].tok, 1
	cycle := func() {
		rec.got = rec.got[:0]
		m := msgs[i%2]
		m.Topic = "work" // the recorder poisons what it hands out
		a.offer(m, nil)  // the one slot is held: queued
		a.release(tok)   // promoted onto the slot just freed
		if len(rec.got) != 1 || !rec.got[0].run || rec.got[0].id != m.ID {
			t.Fatalf("cycle %d: decisions %v, want #%d promoted", i, rec.got, m.ID)
		}
		tok, i = rec.got[0].tok, i+1
	}
	for j := 0; j < 10; j++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("queue and promote allocate %.2f objects, want 0", allocs)
	}
}
