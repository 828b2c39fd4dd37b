package reqlog

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"ndsm/internal/obs"
)

// model is the reference the slot rings are checked against: the recorder's
// retention rules over plain []Record rings, oldest first, with the string
// filter and Time.After ordering Snapshot had before its rings lost their
// pointers.
type model struct {
	slow                time.Duration
	every               uint64
	tailCap, healthyCap int
	tail, healthy       []Record
	seen                uint64
}

func pushBounded(ring []Record, rec Record, capacity int) []Record {
	if len(ring) == capacity {
		ring = ring[1:]
	}
	return append(ring, rec)
}

func (m *model) record(rec Record) {
	if rec.tailWorthy() {
		m.tail = pushBounded(m.tail, rec, m.tailCap)
	} else if m.seen++; m.seen%m.every == 0 {
		m.healthy = pushBounded(m.healthy, rec, m.healthyCap)
	}
}

func newestFirst(ring []Record) []Record {
	out := make([]Record, 0, len(ring))
	for i := len(ring) - 1; i >= 0; i-- {
		out = append(out, ring[i])
	}
	return out
}

// sorted is Snapshot's order over everything retained; filtered is what a
// Filter then lets through. Two steps, so that one sort serves every filter
// checked after an operation.
func (m *model) sorted() []Record {
	all := append(newestFirst(m.tail), newestFirst(m.healthy)...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time.After(all[j].Time) })
	return all
}

func filtered(all []Record, f Filter) []Record {
	var out []Record
	for _, rec := range all {
		if (f.Topic == "" || rec.Topic == f.Topic) && (f.Lane == "" || rec.Lane == f.Lane) &&
			(f.Outcome == "" || rec.Outcome == f.Outcome) && (f.Kind == "" || rec.Kind == f.Kind) {
			if out = append(out, rec); len(out) == f.Limit {
				break
			}
		}
	}
	return out
}

// The alphabets operations draw from. Each has "" (index 0 in the name table,
// "any" in a Filter); the topics have a name no inline array would hold, and
// "b" is also a lane so one index serves two fields.
var (
	modelTopics   = []string{"", "a", "b", "ctl/stop", strings.Repeat("long/", 60)}
	modelPeers    = []string{"", "node-1", "node-2"}
	modelLanes    = []string{"", "control", "bulk", "b"}
	modelOutcomes = []string{OutcomeOK, OutcomeOK, OutcomeShed, OutcomeError, OutcomeTimeout, ""}
	modelReasons  = []string{"", "server at capacity", "preempted"}
	modelKinds    = []string{"", KindClient, KindServer}
)

const opBytes = 6

// runModelOps decodes data into a recorder shape and a list of records, plays
// them into a Recorder and the model, and compares the two and audits the name
// table after every record.
func runModelOps(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	capacity, every := 8+int(data[0])%57, 1+int(data[1])%4
	r := New(Options{Capacity: capacity, SampleEvery: every, Registry: obs.NewRegistry()})
	m := &model{every: uint64(every),
		tailCap: capacity * 3 / 4, healthyCap: capacity - capacity*3/4}
	pick := func(from []string, b byte) string { return from[int(b)%len(from)] }

	now := time.Unix(1_700_000_000, 0)
	for ops := data[2:]; len(ops) >= opBytes; ops = ops[opBytes:] {
		rec := Record{
			Topic: pick(modelTopics, ops[0]), Peer: pick(modelPeers, ops[0]>>4),
			Lane: pick(modelLanes, ops[1]), Kind: pick(modelKinds, ops[1]>>4),
			Outcome: pick(modelOutcomes, ops[2]), ShedReason: pick(modelReasons, ops[2]>>4),
			Latency:     []time.Duration{time.Millisecond, 0, slowThreshold + 10*time.Millisecond, slowThreshold - time.Millisecond}[ops[3]%4],
			QueueWait:   time.Duration(ops[3]>>2) * time.Microsecond,
			HasDeadline: ops[4]&1 != 0, DeadlineSlack: time.Duration(int8(ops[4]>>1)) * time.Millisecond,
			Retries: int(ops[4] >> 6), TraceID: uint64(ops[3])<<56 | 1, SpanID: uint64(ops[4]),
		}
		switch ops[5] % 4 { // 0 repeats the last instant
		case 1:
			now = now.Add(time.Millisecond)
		case 2:
			now = now.Add(-time.Millisecond) // stamped out of order
		}
		if rec.Time = now; ops[5]%4 == 3 {
			rec.Time = time.Time{}
		}
		r.Record(rec)
		m.record(rec)

		all := m.sorted()
		wantSame(t, "Snapshot(all)", r.Snapshot(Filter{}), all)
		wantSame(t, "Tail", r.Tail(), newestFirst(m.tail))
		if tail, healthy := r.Len(); tail != len(m.tail) || healthy != len(m.healthy) {
			t.Fatalf("Len = %d, %d, model %d, %d", tail, healthy, len(m.tail), len(m.healthy))
		}
		// One filter per field, its value the input's choice — "" and names
		// the table may not hold included — and a limit.
		probe := ops[5] >> 2
		for _, f := range []Filter{
			{Topic: pick(append(modelTopics, "absent"), probe)},
			{Lane: pick(modelLanes, probe)},
			{Outcome: pick(append(modelOutcomes, OutcomeUnavailable), probe)},
			{Kind: pick(modelKinds, probe)},
			{Limit: 1 + int(probe)%capacity},
			{Topic: rec.Topic, Lane: rec.Lane, Limit: 3},
		} {
			wantSame(t, "Snapshot(filter)", r.Snapshot(f), filtered(all, f))
		}
		auditNames(t, r, capacity)
	}
}

// wantSame requires two record lists to be equal, Time by instant and
// zero-ness (what a ring keeps of it), every other field exactly.
func wantSame(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, model has %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.Time.Equal(w.Time) || g.Time.IsZero() != w.Time.IsZero() {
			t.Fatalf("%s[%d]: time %v, model %v", what, i, g.Time, w.Time)
		}
		if g.Time, w.Time = (time.Time{}), (time.Time{}); g != w {
			t.Fatalf("%s[%d]:\n got   %+v\n model %+v", what, i, g, w)
		}
	}
}

// auditNames checks the name table against the slots: every refcount is the
// number of live slot fields naming that index, every live name is indexed
// once, every dead index is on the free list, and the table stays in bound.
func auditNames(t *testing.T, r *Recorder, capacity int) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	tb := r.tail.names
	if r.healthy.names != tb {
		t.Fatal("the two rings do not share one name table")
	}
	uses := make([]uint32, len(tb.strs))
	for _, rg := range []*ring{&r.tail, &r.healthy} {
		for i := 0; i < rg.n; i++ {
			s := rg.at(i)
			for _, name := range []uint32{s.kind, s.topic, s.peer, s.lane, s.outcome, s.shedReason} {
				uses[name]++
			}
		}
	}
	if len(tb.strs) > 6*capacity+1 || len(tb.refs) != len(tb.strs) {
		t.Fatalf("table holds %d names (%d refcounts), bound %d", len(tb.strs), len(tb.refs), 6*capacity+1)
	}
	live := 0
	for i := 1; i < len(tb.strs); i++ {
		if tb.refs[i] != uses[i] {
			t.Fatalf("refs[%d] (%q) = %d, %d slot fields name it", i, tb.strs[i], tb.refs[i], uses[i])
		}
		if uses[i] == 0 {
			continue
		}
		live++
		if got, ok := tb.index[tb.strs[i]]; !ok || got != uint32(i) {
			t.Fatalf("live name %q at %d is indexed at %d (present %v)", tb.strs[i], i, got, ok)
		}
	}
	if tb.strs[0] != "" || len(tb.index) != live || len(tb.free) != len(tb.strs)-1-live {
		t.Fatalf("table: strs[0]=%q, %d indexed, %d free, %d live of %d",
			tb.strs[0], len(tb.index), len(tb.free), live, len(tb.strs)-1)
	}
}

// FuzzRingMatchesModel model-checks the slot rings and their name table. The
// seed corpus is in testdata/fuzz.
func FuzzRingMatchesModel(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Fuzz(runModelOps)
}

// TestRingMatchesModelProperty runs the same check over seeded random
// operation lists, so a plain `go test` covers what the fuzzer explores.
func TestRingMatchesModelProperty(t *testing.T) {
	sequences := 2000
	if testing.Short() {
		sequences = 200
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < sequences; i++ {
		data := make([]byte, 2+opBytes*rng.Intn(100))
		rng.Read(data)
		// A third of the lists draw from a narrow alphabet, where rings fill
		// with few names and last references are overwritten by themselves.
		if i%3 == 0 {
			for j := 2; j < len(data); j++ {
				data[j] &= 0x11
			}
		}
		runModelOps(t, data)
	}
}
