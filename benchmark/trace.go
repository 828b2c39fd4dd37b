package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// The stamps taken for one request, in the order the request meets them.
// Every one is taken by the benchmark's own code at a public seam: its call
// site, its handler wrapper, or the transport decorator below. The first six
// happen once per request; the last four once per delivered copy (one for a
// request/reply, one per subscriber for a published event).
const (
	stCall     = iota // the benchmark enters the call (Request, RequestAsync, Go, Publish)
	stCSendIn         // caller side enters Conn.Send with the request
	stCSendOut        // that Send returns
	stSRecv           // serving side's Conn.Recv returns the request
	stHIn             // the benchmark's handler is entered
	stHOut            // the handler returns
	stSSendIn         // serving side enters Conn.Send with the reply or event copy
	stSSendOut        // that Send returns
	stCRecv           // receiving side's Conn.Recv returns the reply or event
	stDone            // the benchmark has the result (Wait returned, event drained)
	numStamps

	commonStamps = stSSendIn             // stamps [0, commonStamps) are per request
	copyStamps   = numStamps - stSSendIn // the rest are per copy
)

// The segments that tile a round trip. Their per-request values add up to
// done − call exactly, so their means add up to the mean round trip.
const (
	segClientDown = iota // call entry → caller's Send entry
	segSend              // both Sends, up to the moment the peer has the message
	segHopOut            // caller's Send return → server's Recv return
	segServerUp          // server's Recv return → handler entry
	segHandler           // the benchmark's handler
	segServerDown        // handler return → server's Send entry
	segHopBack           // server's Send return → caller's Recv return
	segClientUp          // caller's Recv return → result in the benchmark's hands
	numSegments
)

var segmentNames = [numSegments]string{
	"endpoint.client_down_us",
	"transport.send_us",
	"transport.hop_out_us",
	"endpoint.server_up_us",
	"app.handler_us",
	"endpoint.server_down_us",
	"transport.hop_back_us",
	"endpoint.client_up_us",
}

// tile cuts one request's stamps into segments. A Send can return after the
// peer already holds the message (the write syscall and the reader's wake-up
// run on different cores); the tail of such a Send is off the request's
// critical path, so the send segment ends when the peer's Recv returns. With
// that, every remaining edge is causally ordered on one monotonic clock. A
// request with a missing or out-of-order stamp is not tiled.
func tile(st *[numStamps]int64) (seg [numSegments]int64, ok bool) {
	for _, v := range st {
		if v == 0 {
			return seg, false
		}
	}
	e := *st
	if e[stCSendOut] > e[stSRecv] {
		e[stCSendOut] = e[stSRecv]
	}
	if e[stSSendOut] > e[stCRecv] {
		e[stSSendOut] = e[stCRecv]
	}
	for i := 1; i < numStamps; i++ {
		if e[i] < e[i-1] {
			return seg, false
		}
	}
	seg[segClientDown] = e[stCSendIn] - e[stCall]
	seg[segSend] = (e[stCSendOut] - e[stCSendIn]) + (e[stSSendOut] - e[stSSendIn])
	seg[segHopOut] = e[stSRecv] - e[stCSendOut]
	seg[segServerUp] = e[stHIn] - e[stSRecv]
	seg[segHandler] = e[stHOut] - e[stHIn]
	seg[segServerDown] = e[stSSendIn] - e[stHOut]
	seg[segHopBack] = e[stCRecv] - e[stSSendOut]
	seg[segClientUp] = e[stDone] - e[stCRecv]
	return seg, true
}

// tracer holds the stamps of a traced run in memory. A nil *tracer is tracing
// off: every method is a no-op, and an untraced run never builds one, nor the
// transport decorator, nor the handler wrapper.
type tracer struct {
	magic   uint64 // marks the benchmark's own payloads; everything else passes unstamped
	copies  int    // delivered copies per request
	relay   bool   // the serving side has no handler of the benchmark's (pub/sub broker): handler stamps collapse onto Recv
	perReq  int    // stamp slots per request
	streams [][]atomic.Int64

	sends, recvs     atomic.Int64
	handlersNow      atomic.Int64
	handlersPeak     atomic.Int64
	copyByRemoteAddr sync.Map // serving side's RemoteAddr → copy index (pub/sub subscribers)
}

func newTracer(magic uint64, streams, perStream, copies int) *tracer {
	t := &tracer{magic: magic, copies: copies, perReq: commonStamps + copies*copyStamps}
	t.streams = make([][]atomic.Int64, streams)
	for i := range t.streams {
		t.streams[i] = offHeap[atomic.Int64](perStream * t.perReq)
	}
	return t
}

// reset forgets every stamp, between phases.
func (t *tracer) reset() {
	for _, s := range t.streams {
		for i := range s {
			s[i].Store(0)
		}
	}
}

// stamp records stamp k of request seq (for copy c, where k is per copy) at
// time at. The first stamp wins, so a retransmission cannot move it.
func (t *tracer) stamp(seq uint64, k, c int, at int64) {
	if t == nil {
		return
	}
	if slot := t.slot(seq, k, c); slot != nil {
		slot.CompareAndSwap(0, at)
	}
}

func (t *tracer) slot(seq uint64, k, c int) *atomic.Int64 {
	stream, index := splitSeq(seq)
	if stream >= len(t.streams) || c >= t.copies {
		return nil
	}
	off := int(index)*t.perReq + k
	if k >= commonStamps {
		off += c * copyStamps
	}
	if index >= uint64(len(t.streams[stream])/t.perReq) {
		return nil
	}
	return &t.streams[stream][off]
}

// stampsOf gathers request seq's stamps, taking the per-copy ones from the
// copy that finished last: the slowest of the parallel parts sets the
// request's time. ok is false when the request was never stamped at all.
func (t *tracer) stampsOf(stream int, index uint64) (st [numStamps]int64, ok bool) {
	seq := seqOf(stream, index)
	if t.slot(seq, stCall, 0).Load() == 0 {
		return st, false
	}
	last := 0
	for c := 1; c < t.copies; c++ {
		if t.slot(seq, stDone, c).Load() > t.slot(seq, stDone, last).Load() {
			last = c
		}
	}
	for k := 0; k < numStamps; k++ {
		st[k] = t.slot(seq, k, last).Load()
	}
	return st, true
}

// segmentTable is the tiling of the traced requests of one phase.
type segmentTable struct {
	tiled    int
	excluded int // stamped at the call site but missing or misordered further on (or refused: no handler ran)
	sumNs    [numSegments]int64
	rttNs    int64 // Σ done − call over the tiled requests
	spans    []requestSpans
}

// meanUs is segment i's mean per tiled request.
func (s *segmentTable) meanUs(i int) float64 {
	if s == nil || s.tiled == 0 {
		return 0
	}
	return float64(s.sumNs[i]) / 1e3 / float64(s.tiled)
}

// rttUs is the mean traced round trip, which the segment means add up to.
func (s *segmentTable) rttUs() float64 {
	if s == nil || s.tiled == 0 {
		return 0
	}
	return float64(s.rttNs) / 1e3 / float64(s.tiled)
}

// requestSpans keeps one request's stamps for the Chrome trace file.
type requestSpans struct {
	seq uint64
	st  [numStamps]int64
}

// maxSpanRequests bounds how many requests per stream and phase are written
// to the trace file; the segment means always use every traced request.
const maxSpanRequests = 200

// takeSegments tiles, stream by stream, every request stamped since the last
// call, and forgets the stamps, ready for the next phase. A nil tracer
// returns nil.
func (t *tracer) takeSegments() []*segmentTable {
	if t == nil {
		return nil
	}
	defer t.reset()
	tabs := make([]*segmentTable, len(t.streams))
	for stream := range t.streams {
		tab := &segmentTable{}
		tabs[stream] = tab
		n := uint64(len(t.streams[stream]) / t.perReq)
		for index := uint64(0); index < n; index++ {
			st, stamped := t.stampsOf(stream, index)
			if !stamped {
				break // indices are issued in order: the first unstamped one ends the stream
			}
			seg, ok := tile(&st)
			if !ok {
				tab.excluded++
				continue
			}
			tab.tiled++
			for i, v := range seg {
				tab.sumNs[i] += v
			}
			tab.rttNs += st[stDone] - st[stCall]
			if len(tab.spans) < maxSpanRequests {
				tab.spans = append(tab.spans, requestSpans{seq: seqOf(stream, index), st: st})
			}
		}
	}
	return tabs
}

// mergeSegments adds stream tables into one, skipping nil ones; nil if there
// are none.
func mergeSegments(tabs ...*segmentTable) *segmentTable {
	if len(tabs) == 0 {
		return nil
	}
	out := &segmentTable{}
	for _, t := range tabs {
		if t == nil {
			continue
		}
		out.tiled += t.tiled
		out.excluded += t.excluded
		for i := range out.sumNs {
			out.sumNs[i] += t.sumNs[i]
		}
		out.rttNs += t.rttNs
		out.spans = append(out.spans, t.spans...)
	}
	return out
}

// payloadHeader is what every benchmark payload starts with: the request's
// sequence number and the run's magic. Handlers echo payloads, so replies and
// fanned-out events carry it too.
const payloadHeader = 16

func putHeader(p []byte, seq, magic uint64) {
	binary.LittleEndian.PutUint64(p[0:8], seq)
	binary.LittleEndian.PutUint64(p[8:16], magic)
}

func headerOf(p []byte, magic uint64) (seq uint64, ok bool) {
	if len(p) < payloadHeader || binary.LittleEndian.Uint64(p[8:16]) != magic {
		return 0, false
	}
	return binary.LittleEndian.Uint64(p[0:8]), true
}

// wrapHandler stamps handler entry and return and tracks how many handlers
// run at once.
func (t *tracer) wrapHandler(h func(payload []byte) ([]byte, error)) func([]byte) ([]byte, error) {
	return func(payload []byte) ([]byte, error) {
		seq, mine := headerOf(payload, t.magic)
		if mine {
			t.stamp(seq, stHIn, 0, nowNs())
		}
		storeMax(&t.handlersPeak, t.handlersNow.Add(1))
		out, err := h(payload)
		t.handlersNow.Add(-1)
		if mine {
			t.stamp(seq, stHOut, 0, nowNs())
		}
		return out, err
	}
}

// storeMax raises peak to v if v is larger.
func storeMax(peak *atomic.Int64, v int64) {
	for {
		p := peak.Load()
		if v <= p || peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// tracedTransport decorates a transport the way transport.Instrument does:
// every connection dialed or accepted through it stamps the benchmark's own
// messages at Send entry, Send return and Recv return. It sits outermost, so
// Send entry is the instant the layer above hands the message down.
type tracedTransport struct {
	transport.Transport
	t    *tracer
	copy int // which delivered copy connections dialed through here receive
}

// wrapTransport decorates inner; a nil tracer returns inner untouched. copy
// is 0 except for the pub/sub subscribers, which each own a transport and
// receive copy 0, 1, 2, ...
func (t *tracer) wrapTransport(inner transport.Transport, copy int) transport.Transport {
	if t == nil {
		return inner
	}
	return &tracedTransport{Transport: inner, t: t, copy: copy}
}

func (tt *tracedTransport) Listen(addr string) (transport.Listener, error) {
	l, err := tt.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: l, t: tt.t}, nil
}

func (tt *tracedTransport) Dial(addr string) (transport.Conn, error) {
	c, err := tt.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	if tt.t.copies > 1 {
		// The serving side learns which copy it is sending from the address
		// it is sending to.
		tt.t.copyByRemoteAddr.Store(c.LocalAddr(), tt.copy)
	}
	return &tracedConn{Conn: c, t: tt.t, copy: tt.copy}, nil
}

type tracedListener struct {
	transport.Listener
	t *tracer
}

func (l *tracedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t, serving: true}, nil
}

// tracedConn is one decorated connection. serving is true on the accepted
// side; copy is the delivered copy a dialed connection receives.
type tracedConn struct {
	transport.Conn
	t       *tracer
	serving bool
	copy    int
}

// peerCopy is the copy a serving connection sends: the one its peer
// registered when it dialed.
func (c *tracedConn) peerCopy() int {
	if c.t.copies > 1 {
		if v, ok := c.t.copyByRemoteAddr.Load(c.RemoteAddr()); ok {
			return v.(int)
		}
	}
	return 0
}

func (c *tracedConn) Send(m *wire.Message) error {
	c.t.sends.Add(1)
	// The layer above may recycle m the moment Send returns, so the sequence
	// number is read before the call.
	seq, mine := headerOf(m.Payload, c.t.magic)
	if !mine {
		return c.Conn.Send(m)
	}
	in, out, cp := stCSendIn, stCSendOut, 0
	if c.serving {
		in, out, cp = stSSendIn, stSSendOut, c.peerCopy()
	}
	c.t.stamp(seq, in, cp, nowNs())
	err := c.Conn.Send(m)
	c.t.stamp(seq, out, cp, nowNs())
	return err
}

func (c *tracedConn) Recv() (*wire.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	at := nowNs()
	c.t.recvs.Add(1)
	if seq, mine := headerOf(m.Payload, c.t.magic); mine {
		if c.serving {
			c.t.stamp(seq, stSRecv, 0, at)
			if c.t.relay {
				c.t.stamp(seq, stHIn, 0, at)
				c.t.stamp(seq, stHOut, 0, at)
			}
		} else {
			c.t.stamp(seq, stCRecv, c.copy, at)
		}
	}
	return m, err
}

// chromeEvent is one entry of the Chrome trace-event format ("X": a complete
// span with a start and a duration, both in microseconds).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromeEvents renders a phase's kept requests: one parent span per request
// and one child span per segment, each naming its request and its parent.
func chromeEvents(phase string, pid int, spans []requestSpans) []chromeEvent {
	var evs []chromeEvent
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for i, r := range spans {
		seg, ok := tile(&r.st)
		if !ok {
			continue
		}
		parent := fmt.Sprintf("%s/%x", phase, r.seq)
		tid := i % 32 // spread requests over rows so overlapping ones stay readable
		evs = append(evs, chromeEvent{
			Name: "request", Cat: phase, Ph: "X", Ts: us(r.st[stCall]), Dur: us(r.st[stDone] - r.st[stCall]),
			Pid: pid, Tid: tid, Args: map[string]any{"request": r.seq, "span": parent, "parent": ""},
		})
		at := r.st[stCall]
		// The send segment is two disjoint pieces; it is drawn as the caller's
		// piece, and the server's piece is drawn in place under its own name.
		order := []struct {
			name string
			dur  int64
		}{
			{segmentNames[segClientDown], seg[segClientDown]},
			{"transport.send_us(request)", min(r.st[stCSendOut], r.st[stSRecv]) - r.st[stCSendIn]},
			{segmentNames[segHopOut], seg[segHopOut]},
			{segmentNames[segServerUp], seg[segServerUp]},
			{segmentNames[segHandler], seg[segHandler]},
			{segmentNames[segServerDown], seg[segServerDown]},
			{"transport.send_us(reply)", min(r.st[stSSendOut], r.st[stCRecv]) - r.st[stSSendIn]},
			{segmentNames[segHopBack], seg[segHopBack]},
			{segmentNames[segClientUp], seg[segClientUp]},
		}
		for j, s := range order {
			evs = append(evs, chromeEvent{
				Name: s.name, Cat: phase, Ph: "X", Ts: us(at), Dur: us(s.dur), Pid: pid, Tid: tid,
				Args: map[string]any{"request": r.seq, "span": fmt.Sprintf("%s/%d", parent, j), "parent": parent},
			})
			at += s.dur
		}
	}
	return evs
}

// writeChromeTrace writes the events as a file chrome://tracing and Perfetto
// load.
func writeChromeTrace(path string, evs []chromeEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"}); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
