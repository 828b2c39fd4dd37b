// Package reqlog is the middleware's per-request analytics plane: one
// structured *wide event* per request — topic, lane, peer, queue wait,
// retries, shed reason, deadline slack, trace/span exemplar IDs — recorded
// at the endpoint layer so every rpc/mq/discovery/core call is covered
// without new call sites.
//
// Two consumers with opposite needs share the plane, so the recorder keeps
// two representations:
//
//   - Aggregates: every request feeds a per-topic sketch.Hist (latency
//     quantiles) and a space-saving top-k (heavy-hitter topics), both
//     cardinality-bounded and mergeable — the telemetry publisher ships them
//     inside ordinary reports and the aggregator folds them cluster-wide.
//     This path is O(1) and allocation-free per request in steady state.
//
//   - Exemplars: a bounded ring of raw records with *tail-based retention* —
//     slow, shed, errored, and deadline-tight requests are always kept
//     (their own sub-ring, which a flood of healthy traffic cannot evict),
//     healthy requests are sampled down to one in SampleEvery. The tail ring
//     is what GET /requests serves and what flight-recorder bundles and
//     failing chaos seeds capture. A ring does not hold Records: it holds
//     fixed-width slots of integers — the time as Unix nanoseconds, the
//     strings as indices into one refcounted name table per Recorder — so
//     the preallocated arrays contain no pointers and the garbage collector
//     never walks them, however idle the ring. What the collector does see
//     is the name table, which holds only the strings live slots refer to:
//     at most 6 × Capacity + 1, in practice a handful.
//
// The recorder is deliberately independent of the endpoint package (the
// endpoint imports it, not the reverse), so anything with a request-shaped
// event — schedulers, the WAL, future planes — can record into the same
// ring.
package reqlog

import (
	"math"
	"sort"
	"sync"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/sketch"
)

// Record kinds: which side of the wire observed the request.
const (
	KindClient = "client"
	KindServer = "server"
)

// Outcomes classify how a request concluded.
const (
	OutcomeOK          = "ok"
	OutcomeError       = "error"
	OutcomeShed        = "shed"
	OutcomeTimeout     = "timeout"
	OutcomeUnavailable = "unavailable"
)

// OverflowTopic absorbs per-topic digests beyond maxTopics, keeping the
// aggregate plane cardinality-bounded whatever the topic space does.
const OverflowTopic = "~other"

const (
	// maxTopics bounds per-topic digest cardinality.
	maxTopics = 64
	// slowThreshold marks a healthy request tail-worthy by latency alone.
	slowThreshold = 100 * time.Millisecond
)

// Record is one wide event. Durations are nanoseconds on the wire (Go's
// native Duration encoding); exemplar IDs are the in-band trace context, so
// a tail record links straight to its span tree.
//
// A record read back from a Recorder (Snapshot, Tail) equals the one
// recorded except for Time, of which the rings keep the instant and nothing
// else: Time.Equal holds, the monotonic reading and the location do not
// survive (it comes back in time.Local), and a zero Time stays zero. The
// instant is kept as Unix nanoseconds and Retries as 32 bits, so a Time
// outside the years 1678–2262 or a Retries beyond int32 is not retained
// exactly.
type Record struct {
	Time       time.Time     `json:"time"`
	Kind       string        `json:"kind"`
	Topic      string        `json:"topic"`
	Peer       string        `json:"peer,omitempty"`
	Lane       string        `json:"lane,omitempty"`
	Outcome    string        `json:"outcome"`
	ShedReason string        `json:"shedReason,omitempty"`
	Latency    time.Duration `json:"latencyNs"`
	QueueWait  time.Duration `json:"queueWaitNs,omitempty"`
	Retries    int           `json:"retries,omitempty"`
	// DeadlineSlack is the time remaining to the request's wire deadline at
	// completion (negative: it finished past its deadline). Only meaningful
	// with HasDeadline.
	DeadlineSlack time.Duration `json:"deadlineSlackNs,omitempty"`
	HasDeadline   bool          `json:"hasDeadline,omitempty"`
	TraceID       uint64        `json:"traceId,omitempty"`
	SpanID        uint64        `json:"spanId,omitempty"`
}

// tailWorthy classifies a record for retention: anything anomalous — a
// non-ok outcome, latency at or beyond slowThreshold, a deadline
// finished tight (under a quarter of its budget left) or blown — is always
// kept. Healthy traffic is sampled instead.
func (r *Record) tailWorthy() bool {
	if r.Outcome != OutcomeOK {
		return true
	}
	if r.Latency >= slowThreshold {
		return true
	}
	if r.HasDeadline {
		if r.DeadlineSlack < 0 {
			return true
		}
		// Tight: under 25% of the original budget (latency + slack) left.
		if 4*r.DeadlineSlack < r.Latency+r.DeadlineSlack {
			return true
		}
	}
	return false
}

// Options assembles a Recorder.
type Options struct {
	// Capacity bounds the exemplar rings: 3/4 tail, 1/4 healthy (default
	// 1024, minimum 8).
	Capacity int
	// SampleEvery keeps one in N healthy records (default 64; 1 keeps all).
	SampleEvery int
	// Registry receives the recorder's counters (nil: counted nowhere):
	// "reqlog.recorded", "reqlog.tail", "reqlog.sampled".
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Capacity <= 0 {
		o.Capacity = 1024
	}
	if o.Capacity < 8 {
		o.Capacity = 8
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 64
	}
	return o
}

// names is the refcounted string table the slots of both rings index. Index
// 0 is "" and is never counted; any other index is live while refs[i] > 0 —
// the number of slot fields naming it — and goes onto the free list when that
// reaches zero, so the table holds exactly the strings retained records use.
type names struct {
	index map[string]uint32
	strs  []string
	refs  []uint32
	free  []uint32
}

func newNames() *names {
	return &names{index: make(map[string]uint32), strs: []string{""}, refs: []uint32{0}}
}

// hold takes one reference to s, entering it if absent.
func (t *names) hold(s string) uint32 {
	if s == "" {
		return 0
	}
	i, ok := t.index[s]
	if !ok {
		if n := len(t.free); n > 0 {
			i, t.free = t.free[n-1], t.free[:n-1]
			t.strs[i] = s
		} else {
			i = uint32(len(t.strs))
			t.strs = append(t.strs, s)
			t.refs = append(t.refs, 0)
		}
		t.index[s] = i
	}
	t.refs[i]++
	return i
}

// drop returns one reference to index i.
func (t *names) drop(i uint32) {
	if i == 0 {
		return
	}
	if t.refs[i]--; t.refs[i] == 0 {
		delete(t.index, t.strs[i])
		t.strs[i] = ""
		t.free = append(t.free, i)
	}
}

// lookup resolves a Filter string: "" is index 0, which Snapshot reads as
// "any"; ok is false for a name no retained record uses.
func (t *names) lookup(s string) (i uint32, ok bool) {
	if s == "" {
		return 0, true
	}
	i, ok = t.index[s]
	return i, ok
}

// zeroTime stands for a zero Record.Time, whose UnixNano is undefined; it
// orders before every instant UnixNano can express, as a zero Time does.
const zeroTime = math.MinInt64

// slot is a retained Record in fixed-width form. It must hold no pointers
// (TestSlotHoldsNoPointers): that is what lets the collector skip the rings.
type slot struct {
	time                                         int64 // Unix ns, or zeroTime
	latency, queueWait, slack                    int64
	traceID, spanID                              uint64
	kind, topic, peer, lane, outcome, shedReason uint32 // into names
	retries                                      int32
	hasDeadline                                  bool
}

// ring is a fixed-capacity overwrite-oldest record buffer.
type ring struct {
	buf   []slot
	names *names
	start int
	n     int
}

func (r *ring) push(rec Record) {
	// Hold the new names before dropping the old slot's: a name whose last
	// reference is being overwritten by itself must not leave the table.
	t := r.names
	s := slot{
		time:    zeroTime,
		latency: int64(rec.Latency), queueWait: int64(rec.QueueWait), slack: int64(rec.DeadlineSlack),
		traceID: rec.TraceID, spanID: rec.SpanID,
		kind: t.hold(rec.Kind), topic: t.hold(rec.Topic), peer: t.hold(rec.Peer),
		lane: t.hold(rec.Lane), outcome: t.hold(rec.Outcome), shedReason: t.hold(rec.ShedReason),
		retries: int32(rec.Retries), hasDeadline: rec.HasDeadline,
	}
	if !rec.Time.IsZero() {
		s.time = rec.Time.UnixNano()
	}
	i := r.start
	if r.n < len(r.buf) {
		i = (r.start + r.n) % len(r.buf)
		r.n++
	} else {
		r.start = (r.start + 1) % len(r.buf)
	}
	old := &r.buf[i] // all zeroes, whose drops do nothing, until the ring wraps
	for _, name := range [...]uint32{old.kind, old.topic, old.peer, old.lane, old.outcome, old.shedReason} {
		t.drop(name)
	}
	*old = s
}

// at is the i-th newest slot, 0 ≤ i < r.n.
func (r *ring) at(i int) *slot { return &r.buf[(r.start+r.n-1-i)%len(r.buf)] }

// record materialises a slot.
func (t *names) record(s *slot) Record {
	rec := Record{
		Kind: t.strs[s.kind], Topic: t.strs[s.topic], Peer: t.strs[s.peer],
		Lane: t.strs[s.lane], Outcome: t.strs[s.outcome], ShedReason: t.strs[s.shedReason],
		Latency: time.Duration(s.latency), QueueWait: time.Duration(s.queueWait),
		Retries: int(s.retries), DeadlineSlack: time.Duration(s.slack), HasDeadline: s.hasDeadline,
		TraceID: s.traceID, SpanID: s.spanID,
	}
	if s.time != zeroTime {
		rec.Time = time.Unix(0, s.time)
	}
	return rec
}

// appendNewestFirst appends the ring's records newest-first to dst.
func (r *ring) appendNewestFirst(dst []Record) []Record {
	for i := 0; i < r.n; i++ {
		dst = append(dst, r.names.record(r.at(i)))
	}
	return dst
}

// Recorder is the per-node wide-event sink. Safe for concurrent use; the
// hot path is one short critical section and, in steady state, zero
// allocations even for records that are sampled out (the AllocsPerRun guard
// in ndsm-bench pins that).
type Recorder struct {
	opts Options

	recorded *obs.Counter
	tailKept *obs.Counter
	sampled  *obs.Counter

	mu       sync.Mutex
	tail     ring // the two rings share one name table
	healthy  ring
	seen     uint64                  // healthy records seen, for 1-in-N sampling
	topics   map[string]*sketch.Hist // per-topic latency, milliseconds
	overflow *sketch.Hist
	topk     *sketch.TopK
}

// New builds a recorder.
func New(opts Options) *Recorder {
	opts = opts.withDefaults()
	reg := opts.Registry
	tailCap := opts.Capacity * 3 / 4
	healthyCap := opts.Capacity - tailCap
	names := newNames()
	return &Recorder{
		opts:     opts,
		recorded: reg.Counter("reqlog.recorded"),
		tailKept: reg.Counter("reqlog.tail"),
		sampled:  reg.Counter("reqlog.sampled"),
		tail:     ring{buf: make([]slot, tailCap), names: names},
		healthy:  ring{buf: make([]slot, healthyCap), names: names},
		topics:   make(map[string]*sketch.Hist, maxTopics),
		topk:     sketch.NewTopK(sketch.DefaultTopKCapacity),
	}
}

// Record folds one wide event in: aggregates always, the exemplar ring by
// tail classification (always) or healthy sampling (1-in-SampleEvery).
func (r *Recorder) Record(rec Record) {
	r.recorded.Inc(1)
	r.mu.Lock()
	r.topk.Offer(rec.Topic, 1)
	lat := r.topics[rec.Topic]
	if lat == nil {
		lat = r.newTopicLocked(rec.Topic)
	}
	lat.Add(float64(rec.Latency) / float64(time.Millisecond))
	if rec.tailWorthy() {
		r.tail.push(rec)
		r.mu.Unlock()
		r.tailKept.Inc(1)
		return
	}
	r.seen++
	keep := r.seen%uint64(r.opts.SampleEvery) == 0
	if keep {
		r.healthy.push(rec)
	}
	r.mu.Unlock()
	if keep {
		r.sampled.Inc(1)
	}
}

// newTopicLocked creates (or overflows) a topic's aggregate slot.
func (r *Recorder) newTopicLocked(topic string) *sketch.Hist {
	if len(r.topics) >= maxTopics {
		if r.overflow == nil {
			r.overflow = new(sketch.Hist)
			r.topics[OverflowTopic] = r.overflow
		}
		return r.overflow
	}
	lat := new(sketch.Hist)
	r.topics[topic] = lat
	return lat
}

// Filter selects records out of Snapshot; zero fields match everything.
type Filter struct {
	Topic   string
	Lane    string
	Outcome string
	Kind    string
	// Limit caps returned records (<= 0: no cap).
	Limit int
}

// Snapshot copies matching retained records, newest first (tail and sampled
// healthy records interleaved by time; at equal times tail before healthy,
// then later-recorded first).
func (r *Recorder) Snapshot(f Filter) []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	// A slot matches on indices: 0, from "", is any, and a name not in the
	// table is on no retained record.
	names := r.tail.names
	topic, ok1 := names.lookup(f.Topic)
	lane, ok2 := names.lookup(f.Lane)
	outcome, ok3 := names.lookup(f.Outcome)
	kind, ok4 := names.lookup(f.Kind)
	if !(ok1 && ok2 && ok3 && ok4) {
		return []Record{}
	}
	hits := make([]*slot, 0, r.tail.n+r.healthy.n)
	for _, rg := range [...]*ring{&r.tail, &r.healthy} {
		for i := 0; i < rg.n; i++ {
			s := rg.at(i)
			if (topic == 0 || s.topic == topic) && (lane == 0 || s.lane == lane) &&
				(outcome == 0 || s.outcome == outcome) && (kind == 0 || s.kind == kind) {
				hits = append(hits, s)
			}
		}
	}
	sort.SliceStable(hits, func(i, j int) bool { return hits[i].time > hits[j].time })
	if f.Limit > 0 && len(hits) > f.Limit {
		hits = hits[:f.Limit]
	}
	out := make([]Record, len(hits))
	for i, s := range hits {
		out[i] = names.record(s)
	}
	return out
}

// Tail copies just the tail ring — the anomalous exemplars — newest first.
// This is what flight-recorder bundles and chaos failure artifacts embed: the
// requests that went wrong, guaranteed unevicted by healthy traffic.
func (r *Recorder) Tail() []Record {
	r.mu.Lock()
	out := r.tail.appendNewestFirst(make([]Record, 0, r.tail.n))
	r.mu.Unlock()
	return out
}

// TopicQuantile reads one topic's local latency quantile in milliseconds.
func (r *Recorder) TopicQuantile(topic string, q float64) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lat := r.topics[topic]
	if lat == nil || lat.Count() == 0 {
		return 0, false
	}
	return lat.Quantile(q), true
}

// TopicDigests serializes every per-topic latency histogram — the payload the
// telemetry publisher ships. Digests are cumulative since recorder start;
// aggregators keep the newest per node and merge across nodes.
func (r *Recorder) TopicDigests() map[string][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.topics) == 0 {
		return nil
	}
	out := make(map[string][]byte, len(r.topics))
	for t, lat := range r.topics {
		out[t] = lat.AppendBinary(nil)
	}
	return out
}

// TopKBinary serializes the heavy-hitter summary (nil before any traffic).
func (r *Recorder) TopKBinary() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.topk.Total() == 0 {
		return nil
	}
	return r.topk.AppendBinary(nil)
}

// TopK returns the n heaviest local topics.
func (r *Recorder) TopK(n int) []sketch.TopKEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.topk.Top(n)
}

// Len reports retained exemplar counts (tail, sampled healthy).
func (r *Recorder) Len() (tail, healthy int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tail.n, r.healthy.n
}
