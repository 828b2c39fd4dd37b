package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"os"

	"ndsm/internal/simtime"
)

func newTestTracer(col *Collector) (*Tracer, *simtime.Virtual) {
	vc := simtime.NewVirtual(time.Unix(1000, 0))
	return New(Options{Name: "test", Clock: vc, Collector: col}), vc
}

func TestSpanTreeParentLinks(t *testing.T) {
	col := NewCollector(16)
	tr, vc := newTestTracer(col)

	root := tr.StartSpan("root", Context{})
	if root == nil {
		t.Fatal("root span is nil")
	}
	release := root.Activate()
	vc.Advance(time.Millisecond)

	child := tr.StartSpan("child", Context{}) // ambient parent
	vc.Advance(time.Millisecond)
	grand := tr.StartSpan("grand", child.Context()) // explicit parent
	vc.Advance(time.Millisecond)
	grand.Finish()
	child.Finish()
	release()
	root.Finish()

	spans := col.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	r, c, g := byName["root"], byName["child"], byName["grand"]
	if r.TraceID == 0 || c.TraceID != r.TraceID || g.TraceID != r.TraceID {
		t.Fatalf("trace IDs not shared: root=%x child=%x grand=%x", r.TraceID, c.TraceID, g.TraceID)
	}
	if r.ParentID != 0 {
		t.Errorf("root has parent %x, want 0", r.ParentID)
	}
	if c.ParentID != r.SpanID {
		t.Errorf("child parent = %x, want root span %x", c.ParentID, r.SpanID)
	}
	if g.ParentID != c.SpanID {
		t.Errorf("grand parent = %x, want child span %x", g.ParentID, c.SpanID)
	}
	// Virtual-clock timestamps: completion order is grand, child, root.
	if !spans[0].End.Before(spans[2].End) && !spans[0].End.Equal(spans[2].End) {
		t.Errorf("span order not by completion: %v vs %v", spans[0].End, spans[2].End)
	}
	if got := r.End.Sub(r.Start); got != 3*time.Millisecond {
		t.Errorf("root duration = %v, want 3ms (virtual clock)", got)
	}
}

func TestInjectExtractRoundTrip(t *testing.T) {
	c := Context{TraceID: 0xdeadbeefcafe, SpanID: 0x42}
	h := Inject(c, nil)
	if h[HeaderTraceID] != "0000deadbeefcafe" || h[HeaderSpanID] != "0000000000000042" {
		t.Fatalf("unexpected headers: %v", h)
	}
	if got := Extract(h); got != c {
		t.Fatalf("round trip: got %+v, want %+v", got, c)
	}

	// Invalid context injects nothing.
	if h := Inject(Context{}, nil); h != nil {
		t.Errorf("invalid context injected headers: %v", h)
	}

	// Malformed / partial headers extract to zero, never panic.
	for _, h := range []map[string]string{
		nil,
		{},
		{HeaderTraceID: "xyz", HeaderSpanID: "0000000000000042"},
		{HeaderTraceID: "0000000000000042"},
		{HeaderSpanID: "0000000000000042"},
		{HeaderTraceID: "0000000000000000", HeaderSpanID: "0000000000000042"},
		{HeaderTraceID: strings.Repeat("f", 17), HeaderSpanID: "1"},
		{HeaderTraceID: "-1", HeaderSpanID: "1"},
	} {
		if got := Extract(h); got.Valid() {
			t.Errorf("Extract(%v) = %+v, want invalid", h, got)
		}
	}
}

func TestFormatParseID(t *testing.T) {
	for _, id := range []uint64{1, 0x42, ^uint64(0)} {
		s := FormatID(id)
		if len(s) != 16 || s != strings.ToLower(s) {
			t.Errorf("FormatID(%x) = %q, want 16 lowercase hex digits", id, s)
		}
		if got := ParseID(s); got != id {
			t.Errorf("ParseID(FormatID(%x)) = %x", id, got)
		}
	}
	if got := ParseID(""); got != 0 {
		t.Errorf("ParseID(\"\") = %x, want 0", got)
	}
	if got := ParseID("not-hex"); got != 0 {
		t.Errorf("ParseID(garbage) = %x, want 0", got)
	}
}

func TestCollectorRingWrap(t *testing.T) {
	col := NewCollector(4)
	tr, vc := newTestTracer(col)
	for i := 0; i < 10; i++ {
		sp := tr.StartSpan("op", Context{})
		sp.SetAttr("i", FormatID(uint64(i)))
		vc.Advance(time.Millisecond)
		sp.Finish()
	}
	if col.Len() != 4 {
		t.Fatalf("Len = %d, want 4", col.Len())
	}
	if col.Total() != 10 {
		t.Fatalf("Total = %d, want 10", col.Total())
	}
	if col.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", col.Dropped())
	}
	spans := col.Spans()
	// Oldest-first: the survivors are iterations 6..9.
	for i, s := range spans {
		if want := FormatID(uint64(6 + i)); s.Attrs["i"] != want {
			t.Errorf("spans[%d].Attrs[i] = %s, want %s", i, s.Attrs["i"], want)
		}
		if s.tracer != nil {
			t.Errorf("spans[%d] retains its tracer", i)
		}
	}
	col.Reset()
	if col.Len() != 0 || col.Total() != 0 || col.Dropped() != 0 {
		t.Errorf("Reset left state: len=%d total=%d dropped=%d", col.Len(), col.Total(), col.Dropped())
	}
}

func TestNilTracerAndSpanAreNoops(t *testing.T) {
	var tr *Tracer
	if sp := tr.StartSpan("x", Context{}); sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	sp, done := tr.Scope("x")
	if sp != nil {
		t.Fatal("nil tracer Scope minted a span")
	}
	done()
	tr.Event("x", "k", "v")
	if tr.Collector() != nil || tr.Name() != "" || tr.Ambient().Valid() {
		t.Error("nil tracer accessors not zero")
	}

	var s *Span
	s.SetAttr("k", "v")
	s.SetError(errors.New("boom"))
	s.Finish()
	s.FinishAt(time.Now())
	s.Activate()()
	if s.Context().Valid() {
		t.Error("nil span context is valid")
	}
}

func TestScopeAndEvent(t *testing.T) {
	col := NewCollector(16)
	tr, vc := newTestTracer(col)

	sp, done := tr.Scope("outer")
	if sp == nil {
		t.Fatal("Scope returned nil span with tracing on")
	}
	vc.Advance(2 * time.Millisecond)
	tr.Event("tick", "peer", "n1", "phi", "3.14")
	done()

	spans := col.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	ev, outer := spans[0], spans[1]
	if ev.Name != "tick" || outer.Name != "outer" {
		t.Fatalf("unexpected order: %s, %s", ev.Name, outer.Name)
	}
	if ev.ParentID != outer.SpanID || ev.TraceID != outer.TraceID {
		t.Errorf("event not parented under ambient scope: parent=%x want %x", ev.ParentID, outer.SpanID)
	}
	if !ev.End.Equal(ev.Start) {
		t.Errorf("event has nonzero duration: %v", ev.End.Sub(ev.Start))
	}
	if ev.Attrs["peer"] != "n1" || ev.Attrs["phi"] != "3.14" {
		t.Errorf("event attrs = %v", ev.Attrs)
	}
	if tr.Ambient().Valid() {
		t.Error("ambient stack not empty after done()")
	}
}

func TestSetErrorAndFinishIdempotent(t *testing.T) {
	col := NewCollector(16)
	tr, vc := newTestTracer(col)
	sp := tr.StartSpan("op", Context{})
	sp.SetError(nil) // no-op
	sp.SetError(errors.New("dropped by radio"))
	vc.Advance(time.Millisecond)
	sp.Finish()
	sp.Finish() // second finish must not double-record
	if col.Total() != 1 {
		t.Fatalf("double Finish recorded %d spans", col.Total())
	}
	if got := col.Spans()[0].Err; got != "dropped by radio" {
		t.Errorf("Err = %q", got)
	}
}

func TestFinishAtClampsToStart(t *testing.T) {
	col := NewCollector(4)
	tr, _ := newTestTracer(col)
	sp := tr.StartSpan("op", Context{})
	sp.FinishAt(sp.Start.Add(-time.Hour))
	s := col.Spans()[0]
	if !s.End.Equal(s.Start) {
		t.Errorf("End %v not clamped to Start %v", s.End, s.Start)
	}
}

func TestDeterministicIDs(t *testing.T) {
	mk := func(name string) []uint64 {
		tr := New(Options{Name: name, Collector: NewCollector(4)})
		var ids []uint64
		for i := 0; i < 4; i++ {
			ids = append(ids, tr.newID())
		}
		return ids
	}
	a, b := mk("alpha"), mk("alpha")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same name diverged at %d: %x vs %x", i, a[i], b[i])
		}
		if a[i] == 0 {
			t.Fatalf("zero ID minted at %d", i)
		}
	}
	c := mk("beta")
	if a[0] == c[0] {
		t.Error("different names produced the same first ID")
	}
}

// TestSharedCollectorDistinctIDs: tracers with distinct names that record
// into one collector mint disjoint ID streams, so no span or trace ID in the
// merged timeline is claimed twice.
func TestSharedCollectorDistinctIDs(t *testing.T) {
	const n = 10000
	col := NewCollector(n)
	trs := []*Tracer{
		New(Options{Name: "client", Collector: col}),
		New(Options{Name: "server", Collector: col}),
	}
	for i := 0; i < n; i++ {
		trs[i%2].StartSpan("op", Context{}).Finish()
	}
	seen := make(map[uint64]bool, 2*n)
	for _, s := range col.Spans() {
		for _, id := range []uint64{s.TraceID, s.SpanID} {
			if seen[id] {
				t.Fatalf("ID %x minted twice", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != 2*n {
		t.Fatalf("saw %d distinct IDs, want %d", len(seen), 2*n)
	}
}

func TestRefAndDefault(t *testing.T) {
	prev := Default()
	defer SetDefault(prev)
	SetDefault(nil)

	var nilRef *Ref
	if nilRef.Get() != nil {
		t.Error("nil Ref with no default should resolve nil")
	}
	r := NewRef(nil)
	if r.Get() != nil {
		t.Error("empty Ref with no default should resolve nil")
	}

	dflt := New(Options{Name: "default", Collector: NewCollector(4)})
	SetDefault(dflt)
	if r.Get() != dflt {
		t.Error("empty Ref should follow the process default")
	}
	if nilRef.Get() != dflt {
		t.Error("nil Ref should follow the process default")
	}

	explicit := New(Options{Name: "explicit", Collector: NewCollector(4)})
	r.Set(explicit)
	if r.Get() != explicit {
		t.Error("Set tracer should win over default")
	}
	r.Set(nil)
	if r.Get() != dflt {
		t.Error("Set(nil) should revert to default-following")
	}

	if Or(explicit) != explicit || Or(nil) != dflt {
		t.Error("Or resolution wrong")
	}
}

func TestWriteJSONL(t *testing.T) {
	col := NewCollector(16)
	tr, vc := newTestTracer(col)
	sp := tr.StartSpan("call", Context{})
	sp.SetAttr("topic", "echo")
	vc.Advance(5 * time.Millisecond)
	sp.Finish()
	ch := tr.StartSpan("hop", sp.Context())
	ch.SetError(errors.New("lossy"))
	ch.Finish()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, col.Spans()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var first struct {
		Trace  string            `json:"trace"`
		Span   string            `json:"span"`
		Parent string            `json:"parent"`
		Name   string            `json:"name"`
		Node   string            `json:"node"`
		DurUS  int64             `json:"dur_us"`
		Attrs  map[string]string `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if first.Name != "call" || first.Node != "test" || first.Parent != "" {
		t.Errorf("line 1 = %+v", first)
	}
	if first.DurUS != 5000 {
		t.Errorf("dur_us = %d, want 5000", first.DurUS)
	}
	if first.Attrs["topic"] != "echo" {
		t.Errorf("attrs = %v", first.Attrs)
	}
	var second struct {
		Trace  string `json:"trace"`
		Parent string `json:"parent"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if second.Trace != first.Trace || second.Parent != first.Span {
		t.Errorf("child links wrong: %+v (parent should be %s)", second, first.Span)
	}
	if second.Error != "lossy" {
		t.Errorf("error = %q", second.Error)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	colA := NewCollector(16)
	vc := simtime.NewVirtual(time.Unix(2000, 0))
	trA := New(Options{Name: "alpha", Clock: vc, Collector: colA})
	trB := New(Options{Name: "beta", Clock: vc, Collector: colA})

	sp := trA.StartSpan("client.call", Context{})
	vc.Advance(3 * time.Millisecond)
	remote := trB.StartSpan("server.handle", sp.Context())
	vc.Advance(time.Millisecond)
	remote.Finish()
	trB.Event("beat") // instant event, its own trace
	sp.Finish()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, colA.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var procs []string
	byName := map[string]int{}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procs = append(procs, ev.Args["name"])
			}
		case "X", "i":
			byName[ev.Name] = i
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if len(procs) != 2 || procs[0] != "beta" && procs[0] != "alpha" {
		t.Errorf("process rows = %v, want alpha and beta", procs)
	}
	for _, name := range []string{"client.call", "server.handle", "beat"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing event %q", name)
		}
	}
	call := doc.TraceEvents[byName["client.call"]]
	handle := doc.TraceEvents[byName["server.handle"]]
	beat := doc.TraceEvents[byName["beat"]]
	if call.Ph != "X" || call.Dur != 4000 {
		t.Errorf("client.call ph=%s dur=%d, want X/4000us", call.Ph, call.Dur)
	}
	if beat.Ph != "i" {
		t.Errorf("beat ph=%s, want i (instant)", beat.Ph)
	}
	if handle.Args["parent"] != call.Args["span"] || handle.Args["trace"] != call.Args["trace"] {
		t.Errorf("cross-node links lost: handle=%v call=%v", handle.Args, call.Args)
	}
	if call.PID == handle.PID {
		t.Error("alpha and beta share a pid row")
	}
}

func TestWriteChromeFile(t *testing.T) {
	col := NewCollector(4)
	tr, _ := newTestTracer(col)
	tr.Event("only")
	path := t.TempDir() + "/trace.json"
	if err := WriteChromeFile(path, col.Spans()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("file not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("missing traceEvents key")
	}
}
