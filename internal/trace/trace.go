// Package trace is the middleware's causal-tracing layer: X-Trace-style
// metadata propagation (see PAPERS.md) with zero dependencies, driven
// entirely by an injected simtime.Clock so virtual-time chaos runs produce
// coherent timelines.
//
// A Tracer mints spans; a span is one timed operation (a call, a discovery
// round, a radio hop) with a trace ID shared by every span in the same
// causal tree, a span ID of its own, and its parent's span ID. Context
// crosses process boundaries in-band through wire.Message.Headers (the
// HeaderTraceID / HeaderSpanID keys — set once at the endpoint layer, so
// every codec carries it for free) and crosses layers within a process
// through the tracer's ambient span stack. Finished spans land in a bounded
// ring-buffer Collector and export as JSONL or Chrome trace-event JSON
// (loadable in chrome://tracing or Perfetto).
//
// Everything is nil-tolerant: a nil *Tracer and a nil *Span are valid
// no-op receivers, so call sites never branch on "is tracing on" and the
// disabled path allocates nothing.
package trace

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ndsm/internal/simtime"
)

// Header keys for in-band context propagation via wire.Message.Headers.
// Values are 16-digit lowercase hex.
const (
	HeaderTraceID = "trace-id"
	HeaderSpanID  = "span-id"
)

// Context is a span's position in a trace: enough to parent a child span on
// the other side of a wire.
type Context struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context identifies a real span.
func (c Context) Valid() bool { return c.TraceID != 0 && c.SpanID != 0 }

// Inject writes c into a header map, allocating one when h is nil. Invalid
// contexts (disabled tracing) inject nothing and return h
// unchanged — downstream stays untraced at zero cost.
func Inject(c Context, h map[string]string) map[string]string {
	if !c.Valid() {
		return h
	}
	if h == nil {
		h = make(map[string]string, 2)
	}
	h[HeaderTraceID] = formatID(c.TraceID)
	h[HeaderSpanID] = formatID(c.SpanID)
	return h
}

// Extract reads a context out of a header map; a zero Context means the
// message carried none (or carried garbage — malformed IDs are ignored, not
// errors, because headers travel over lossy fuzzable wires).
func Extract(h map[string]string) Context {
	if len(h) == 0 {
		return Context{}
	}
	tid := parseID(h[HeaderTraceID])
	sid := parseID(h[HeaderSpanID])
	if tid == 0 || sid == 0 {
		return Context{}
	}
	return Context{TraceID: tid, SpanID: sid}
}

// FormatID renders a trace or span ID the way it travels on the wire:
// 16 lowercase hex digits. Carriers that cannot use wire.Message headers
// (e.g. the flood protocol's JSON envelope) embed IDs in this form.
func FormatID(id uint64) string { return formatID(id) }

// ParseID reads a wire-format ID; malformed or empty input yields 0 (the
// invalid ID), never an error — IDs travel over lossy fuzzable paths.
func ParseID(s string) uint64 { return parseID(s) }

func formatID(id uint64) string { return fmt.Sprintf("%016x", id) }

func parseID(s string) uint64 {
	if s == "" {
		return 0
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return v
}

// Span is one timed, attributed operation. Exported fields are the recorded
// artifact; a Span is mutated only by its creating goroutine and becomes
// immutable once End (or EndAt) runs.
type Span struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
	// Name is the operation ("call disc.lookup", "radio.send", ...).
	Name string
	// Node is the tracer name that recorded the span — the process/endpoint
	// row on the exported timeline.
	Node  string
	Start time.Time
	End   time.Time
	// Attrs carries key/value annotations (peer, topic, outcome detail).
	Attrs map[string]string
	// Err is the failure description; empty means the operation succeeded.
	Err string

	tracer *Tracer
	ended  bool
}

// Context returns the span's propagation context (zero for a nil span, so
// Inject on it is a no-op).
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return Context{TraceID: s.TraceID, SpanID: s.SpanID}
}

// SetAttr annotates the span. No-op on nil.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[k] = v
}

// SetError marks the span failed. A nil error (or nil span) is a no-op, so
// `sp.SetError(err)` needs no guard at call sites.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.Err = err.Error()
}

// Finish ends the span at the tracer clock's current time and records it.
func (s *Span) Finish() {
	if s == nil || s.ended {
		return
	}
	s.FinishAt(s.tracer.now())
}

// FinishAt ends the span at an explicit instant — netsim uses it to give a
// delayed hop span its scheduled arrival time. Instants before Start are
// clamped to Start (a zero-length span, exported as an instant event).
func (s *Span) FinishAt(at time.Time) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	if at.Before(s.Start) {
		at = s.Start
	}
	s.End = at
	if s.tracer != nil && s.tracer.col != nil {
		s.tracer.col.Record(*s)
	}
}

// Activate pushes the span onto its tracer's ambient stack, making it the
// default parent for spans started without an explicit context — the
// within-process analogue of header propagation. The returned func pops it;
// always call it (defer). Ambient state is per-tracer, so under concurrency
// it is a best-effort parent hint: the deterministic simulated worlds this
// repo traces run their causal chains on one goroutine at a time, where it
// is exact.
func (s *Span) Activate() func() {
	if s == nil || s.tracer == nil {
		return noopRelease
	}
	return s.tracer.push(s.Context())
}

var noopRelease = func() {}

// Options configures a Tracer. The zero value works: real clock, private
// 4096-span collector. Every trace is recorded.
type Options struct {
	// Name stamps spans' Node field (default "node") and seeds the tracer's
	// IDs: they are deterministic functions of Name and a counter, so a
	// replayed run yields byte-identical traces, and tracers that share a
	// collector need distinct names to keep distinct ID streams.
	Name string
	// Clock supplies span timestamps (default real time; pass the world's
	// *simtime.Virtual so traces line up with the fault schedule).
	Clock simtime.Clock
	// Collector receives finished spans; share one across the tracers of a
	// simulated world to get a single merged timeline (default: a fresh
	// collector of DefaultCollectorCap spans).
	Collector *Collector
}

// Tracer mints spans. Safe for concurrent use; nil is a valid no-op tracer.
type Tracer struct {
	name  string
	clock simtime.Clock
	col   *Collector
	seed  uint64

	idCtr atomic.Uint64

	mu      sync.Mutex
	ambient []Context
}

// New builds a tracer.
func New(o Options) *Tracer {
	if o.Name == "" {
		o.Name = "node"
	}
	o.Clock = simtime.OrReal(o.Clock)
	if o.Collector == nil {
		o.Collector = NewCollector(0)
	}
	h := fnv.New64a()
	h.Write([]byte(o.Name))
	return &Tracer{
		name:  o.Name,
		clock: o.Clock,
		col:   o.Collector,
		seed:  h.Sum64(),
	}
}

// Collector returns the tracer's span sink (nil for a nil tracer).
func (t *Tracer) Collector() *Collector {
	if t == nil {
		return nil
	}
	return t.col
}

func (t *Tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.clock.Now()
}

// newID derives the next ID with a splitmix64 finalizer over a seeded
// counter: deterministic per (name, call order), never zero.
func (t *Tracer) newID() uint64 {
	z := t.idCtr.Add(1)*0x9E3779B97F4A7C15 + t.seed*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// StartSpan starts a span under parent. An invalid parent falls back to the
// tracer's ambient span; with no ambient either, a new root trace starts.
// Returns nil — a valid no-op span — when tracing is disabled.
func (t *Tracer) StartSpan(name string, parent Context) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		parent = t.Ambient()
	}
	var traceID, parentID uint64
	if parent.Valid() {
		traceID, parentID = parent.TraceID, parent.SpanID
	} else {
		traceID = t.newID()
	}
	return &Span{
		TraceID:  traceID,
		SpanID:   t.newID(),
		ParentID: parentID,
		Name:     name,
		Node:     t.name,
		Start:    t.now(),
		tracer:   t,
	}
}

// Scope starts an ambient-parented span and activates it; the returned func
// deactivates and finishes it. The two-line idiom for tracing a call path:
//
//	sp, done := tracer.Scope("binding.request")
//	defer done()
func (t *Tracer) Scope(name string) (*Span, func()) {
	if t == nil {
		return nil, noopRelease
	}
	sp := t.StartSpan(name, Context{})
	release := sp.Activate()
	return sp, func() {
		release()
		sp.Finish()
	}
}

// Event records an instantaneous occurrence (a heartbeat, a suspicion flip,
// a breaker transition) as a zero-length span under the ambient parent — or
// as a root event when nothing is ambient. kv is alternating key/value
// attribute pairs.
func (t *Tracer) Event(name string, kv ...string) {
	if t == nil {
		return
	}
	sp := t.StartSpan(name, Context{})
	for i := 0; i+1 < len(kv); i += 2 {
		sp.SetAttr(kv[i], kv[i+1])
	}
	sp.FinishAt(sp.Start)
}

// Ambient returns the tracer's current ambient context (zero when none).
func (t *Tracer) Ambient() Context {
	if t == nil {
		return Context{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.ambient); n > 0 {
		return t.ambient[n-1]
	}
	return Context{}
}

// push makes ctx ambient and returns the pop. Pops remove by span identity
// (searched from the top) so out-of-order releases cannot corrupt the stack.
func (t *Tracer) push(ctx Context) func() {
	t.mu.Lock()
	t.ambient = append(t.ambient, ctx)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		for i := len(t.ambient) - 1; i >= 0; i-- {
			if t.ambient[i].SpanID == ctx.SpanID {
				t.ambient = append(t.ambient[:i], t.ambient[i+1:]...)
				return
			}
		}
	}
}
