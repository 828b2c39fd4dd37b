package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// What recycling must not change: a message decoded into a recycled shell and
// payload buffer is the message a new shell would have held — field for field,
// nil for nil — and no two messages alive at once share memory. The model is
// the message that was encoded; the script decides what is sent and which of
// the messages still held are handed back in between.

// recycleNames are the envelope strings scripted messages draw from: empty,
// ordinary, and on both sides of what a FrameReader remembers.
var recycleNames = []string{
	"",
	"a",
	"sensors/bp",
	strings.Repeat("x", maxRememberedName-1),
	strings.Repeat("y", maxRememberedName),
	strings.Repeat("z", maxRememberedName+1),
}

// held is a message some owner still has, beside what it must go on reading as.
// keep is the capacity of the buffer its Recycle must hand back, when the
// model knows it, and -1 when it does not.
type held struct {
	want, got *Message
	keep      int
}

// intact is Equal plus what Equal forgives — nil against empty, a zero
// Deadline against none — with a payload comparison quick enough to run over
// every held message after every read.
func (h held) intact() bool {
	w, g := h.want, h.got
	shell := *g
	shell.Payload, shell.Headers = nil, nil
	if !shell.Equal(&Message{ID: w.ID, Kind: w.Kind, Src: w.Src, Dst: w.Dst, Topic: w.Topic, Corr: w.Corr, Priority: w.Priority, Deadline: w.Deadline}) {
		return false
	}
	if g.Deadline.IsZero() != w.Deadline.IsZero() || (g.Headers == nil) != (len(w.Headers) == 0) || (g.Payload == nil) != (len(w.Payload) == 0) {
		return false
	}
	if len(g.Headers) != len(w.Headers) {
		return false
	}
	for k, v := range w.Headers {
		if gv, ok := g.Headers[k]; !ok || gv != v {
			return false
		}
	}
	return bytes.Equal(g.Payload, w.Payload)
}

// brief prints a message without its payload and with its names cut short.
func brief(m *Message) string {
	short := func(s string) string { return fmt.Sprintf("%.12q(%d)", s, len(s)) }
	return fmt.Sprintf("{ID %d %v src %s dst %s topic %s corr %d prio %d deadline %v headers %v payload %d bytes, nil %v, starts %x}",
		m.ID, m.Kind, short(m.Src), short(m.Dst), short(m.Topic), m.Corr, m.Priority, m.Deadline, m.Headers,
		len(m.Payload), m.Payload == nil, m.Payload[:min(8, len(m.Payload))])
}

// recycleModel runs one script: four bytes an operation.
type recycleModel struct {
	t       testing.TB
	pipe    bytes.Buffer // what the peer has written and the reader not yet read
	fr      *FrameReader
	live    []held
	lastCap int // capacity of the payload buffer recycled last
	sent    int
	// pooled is every shell this script recycled and no decode or Clone has
	// drawn since, with the capacity of the buffer it went back with.
	pooled map[*Message]int
}

// sizes are the payload lengths an operation picks from: nothing, one byte,
// ordinary ones, either side of the buffer recycled last (a decode that just
// fits, and one that must not use it), and either side of the largest buffer a
// recycled message keeps.
func (r *recycleModel) size(pick byte) int {
	sizes := [...]int{0, 1, 0, 64, r.lastCap - 1, r.lastCap, r.lastCap + 1, 4095, 1, 64, 0, 300,
		maxRecycledPayload - 1, maxRecycledPayload, maxRecycledPayload + 1, 16 << 10}
	return max(0, sizes[int(pick)%len(sizes)])
}

func (r *recycleModel) message(flags, size, names byte) *Message {
	r.sent++
	m := &Message{
		ID:    uint64(r.sent),
		Kind:  Kind(1 + r.sent%7),
		Src:   recycleNames[int(names)%len(recycleNames)],
		Dst:   recycleNames[int(names>>2)%len(recycleNames)],
		Topic: recycleNames[int(names>>4)%len(recycleNames)],
	}
	if flags&1 != 0 {
		m.Deadline = time.Unix(0, int64(r.sent)*1_000_003).UTC()
	}
	switch flags >> 1 & 3 {
	case 1:
		m.Headers = map[string]string{"ndsm-lane": "control"}
	case 2, 3:
		m.Headers = map[string]string{"a": "", "trace-id": "00000000deadbeef", "span-id": strings.Repeat("s", r.sent%40)}
	}
	if flags&8 != 0 {
		m.Priority = flags
	}
	if flags&16 != 0 {
		m.Corr = uint64(flags) << 20
	}
	if n := r.size(size); n > 0 {
		// The contents name the message, so a buffer two of them shared shows.
		m.Payload = bytes.Repeat([]byte{byte(r.sent), byte(r.sent >> 8), 0xA5}, n/3+1)[:n]
	}
	return m
}

// read frames body, reads it back through the one FrameReader and through a
// Binary.Decode of its own, and returns both results.
func (r *recycleModel) read(body []byte) (fromReader, fromDecode *Message, err error) {
	r.t.Helper()
	frame, ferr := AppendFrame(nil, ContentBinary, body)
	if ferr != nil {
		r.t.Fatal(ferr)
	}
	r.pipe.Write(frame)
	fromReader, err = r.fr.ReadMessage()
	fromDecode, derr := Binary{}.Decode(body)
	if (err == nil) != (derr == nil) || errors.Is(err, ErrInvalidMessage) != errors.Is(derr, ErrInvalidMessage) {
		r.t.Fatalf("message %d: reader %v, decode %v", r.sent, err, derr)
	}
	return fromReader, fromDecode, err
}

func (r *recycleModel) step(op [4]byte) {
	r.t.Helper()
	switch {
	case op[0]%4 == 0: // hand back the k-th message still held
		if len(r.live) == 0 {
			return
		}
		k := int(op[1]) % len(r.live)
		h := r.live[k]
		m := h.got
		r.live = append(r.live[:k], r.live[k+1:]...)
		r.lastCap = max(cap(m.Payload), cap(m.spare))
		Recycle(m)
		if cap(m.Payload) > maxRecycledPayload {
			r.t.Fatalf("a recycled message kept a %d-byte buffer, cap is %d", cap(m.Payload), maxRecycledPayload)
		}
		if h.keep >= 0 && cap(m.Payload) != h.keep {
			r.t.Fatalf("message %d, empty, went back with a %d-byte buffer; its shell came with %d bytes", h.want.ID, cap(m.Payload), h.keep)
		}
		r.pooled[m] = cap(m.Payload)
	case op[0]%16 == 1: // a frame whose body does not decode: every field filled, then refused
		m := r.message(1|2<<1|8|16, op[2], op[3])
		body, err := Binary{}.Encode(m)
		if err != nil {
			r.t.Fatal(err)
		}
		if op[1]&1 == 0 {
			body[2] = 0xEE // no such kind: Validate refuses it after the payload is in
		} else {
			body = body[:len(body)-1-int(op[1]>>1)%min(len(body)-1, 24)] // torn inside the payload or the headers
		}
		if _, _, err := r.read(body); err == nil {
			r.t.Fatalf("message %d: a broken body decoded", r.sent)
		}
		clear(r.pooled) // the refused shell went back with whatever buffer it had by then
	case op[0]%8 == 3: // Clone, what the mem transport sends
		want := r.message(op[1], op[2], op[3])
		r.hold(want, want.Clone())
	default:
		want := r.message(op[1], op[2], op[3])
		body, err := Binary{}.Encode(want)
		if err != nil {
			r.t.Fatal(err)
		}
		a, b, err := r.read(body)
		if err != nil {
			r.t.Fatalf("message %d: %v", r.sent, err)
		}
		r.hold(want, a)
		r.hold(want, b)
	}
	for _, h := range r.live {
		if !h.intact() {
			r.t.Fatalf("after message %d, message %d, still held, reads\n got  %s\n want %s", r.sent, h.want.ID, brief(h.got), brief(h.want))
		}
	}
}

// hold checks what a decode or Clone returned for want and keeps it. When it
// is a shell the script recycled, the model knows the buffer that came with
// it: a payload that fits must be copied into it, and an empty payload must
// keep it for the shell's next Recycle.
func (r *recycleModel) hold(want, got *Message) {
	r.t.Helper()
	h := held{want: want, got: got, keep: -1}
	if !got.Equal(want) || !h.intact() {
		r.t.Fatalf("message %d:\n got  %s\n want %s", r.sent, brief(got), brief(want))
	}
	if c, ok := r.pooled[got]; ok {
		delete(r.pooled, got)
		switch n := len(want.Payload); {
		case n == 0:
			h.keep = c
		case n <= c && cap(got.Payload) != c:
			r.t.Fatalf("message %d: %d bytes went into a %d-byte buffer, not the %d-byte one recycled with its shell", r.sent, n, cap(got.Payload), c)
		}
	}
	r.live = append(r.live, h)
}

// maxRecycleScript bounds a script: 48 operations hold at most 96 messages.
const maxRecycleScript = 4 * 48

func checkRecycledDecode(t testing.TB, script []byte) {
	t.Helper()
	if len(script) > maxRecycleScript {
		script = script[:maxRecycleScript]
	}
	r := &recycleModel{t: t, pooled: make(map[*Message]int)}
	r.fr = NewFrameReader(&r.pipe)
	for ; len(script) >= 4; script = script[4:] {
		r.step([4]byte(script))
	}
	// What the script still holds goes back, so the next script starts on
	// shells this one has used.
	for _, h := range r.live {
		Recycle(h.got)
	}
}

func TestRecycledDecodeProperty(t *testing.T) {
	rounds := 3000
	if poisonRecycled || testing.Short() {
		rounds = 600 // the race detector watches every byte copied
	}
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < rounds; round++ {
		script := make([]byte, 4*(1+rng.Intn(24)))
		rng.Read(script) //nolint:errcheck
		if round%8 != 0 {
			for i := 2; i < len(script); i += 4 {
				script[i] &= 0x0B // most rounds stay under 4 KiB a message
			}
		}
		checkRecycledDecode(t, script)
	}
}

// FuzzRecycledDecodeMatchesFresh: whatever is sent or cloned and whichever
// held messages are recycled in between, every message reads as it was sent,
// a message still held goes on reading so, a body that is refused leaves
// nothing behind for the next, and a recycled buffer outlives an empty
// payload decoded or cloned into its shell.
func FuzzRecycledDecodeMatchesFresh(f *testing.F) {
	f.Add([]byte{2, 0, 3, 0, 0, 0, 0, 0, 2, 0, 3, 0})                                                 // send, recycle, send into the same buffer
	f.Add([]byte{2, 0, 3, 1, 0, 1, 0, 0, 2, 0, 4, 1, 0, 0, 0, 0, 2, 0, 6, 1, 2, 0, 5, 1})             // one under, one over, exactly the recycled capacity
	f.Add([]byte{2, 0, 13, 0, 0, 0, 0, 0, 2, 0, 14, 0, 0, 1, 0, 0, 2, 0, 12, 0})                      // the cap kept, one past it dropped
	f.Add([]byte{2, 31, 3, 0x15, 0, 0, 0, 0, 2, 0, 0, 0})                                             // every field set, recycled, then none
	f.Add([]byte{2, 0, 3, 0, 0, 0, 0, 0, 17, 0, 3, 0, 2, 0, 0, 0, 17, 1, 3, 0, 2, 0, 1, 0})           // refused bodies between good ones
	f.Add([]byte{2, 2, 1, 0x3F, 2, 4, 1, 0x2A, 0, 1, 0, 0, 0, 0, 0, 0, 2, 0, 1, 0x15})                // names either side of what a reader remembers
	f.Add([]byte{2, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 3, 0}) // an acknowledgement between two payloads
	f.Add([]byte{3, 0, 3, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 3, 0, 3, 0, 11, 0, 9, 0})            // the same through Clone
	f.Fuzz(func(t *testing.T, script []byte) { checkRecycledDecode(t, script) })
}

// A shell recycled with a 64-byte buffer keeps it through an acknowledgement:
// the empty payload decoded or cloned into the shell leaves Payload nil and
// the buffer aside, Recycle hands both back, and the 64-byte payload after it
// is copied into that buffer.
func TestEmptyPayloadKeepsBufferAllocs(t *testing.T) {
	if poisonRecycled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	ack := &Message{Kind: KindAck, Corr: 7}
	data := &Message{Kind: KindData, Payload: bytes.Repeat([]byte{0xA5}, 64)}
	ackBody, err := Binary{}.Encode(ack)
	if err != nil {
		t.Fatal(err)
	}
	dataBody, err := Binary{}.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(body []byte) func() *Message {
		return func() *Message {
			m, err := Binary{}.Decode(body)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	for _, tc := range []struct {
		name      string
		ack, data func() *Message
	}{
		{"decode", decode(ackBody), decode(dataBody)},
		{"clone", ack.Clone, data.Clone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &Message{Payload: make([]byte, 0, 64)}
			cycle := func() {
				Recycle(m)
				a := tc.ack()
				if a.Payload != nil {
					t.Fatalf("an empty payload reads %d/%d bytes, want nil", len(a.Payload), cap(a.Payload))
				}
				Recycle(a)
				m = tc.data()
			}
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Fatalf("the payload after an acknowledgement allocates %.0f objects, want 0", allocs)
			}
			if !m.Equal(data) {
				t.Fatalf("got %+v, want %+v", m, data)
			}
		})
	}
}

// A recycled shell comes back empty, with the buffer at length zero.
func TestRecycleZeroesShell(t *testing.T) {
	m := fuzzSeedMessage()
	m.Payload = make([]byte, 100, 128)
	Recycle(m)
	Recycle(nil)
	wantTopic, wantID := "", uint64(0)
	if poisonRecycled {
		wantTopic, wantID = poisonTopic, poisonID
	}
	if m.Topic != wantTopic || m.ID != wantID {
		t.Errorf("pooled shell has Topic %q and ID %#x", m.Topic, m.ID)
	}
	m.Topic, m.ID = "", 0
	if len(m.Payload) != 0 || cap(m.Payload) != 128 || m.Headers != nil {
		t.Errorf("pooled shell: payload %d/%d, headers %v", len(m.Payload), cap(m.Payload), m.Headers)
	}
	m.Payload = nil
	if !m.Equal(&Message{}) || !m.Deadline.IsZero() {
		t.Errorf("pooled shell keeps %+v", m)
	}
}

// Clone draws on the same pool and owes the same copy.
func TestCloneOwnsItsMemory(t *testing.T) {
	for _, size := range []int{0, 1, 64, 200} {
		Recycle(&Message{Kind: KindData, Topic: "old", Deadline: time.Unix(1, 0), Headers: map[string]string{"k": "v"}, Payload: make([]byte, 64)})
		src := &Message{ID: 9, Kind: KindReply, Topic: "t", Payload: bytes.Repeat([]byte{7}, size)}
		if size == 0 {
			src.Payload = []byte{}
		}
		c := src.Clone()
		if !c.Equal(src) || c.Headers != nil || !c.Deadline.IsZero() || (c.Payload == nil) != (size == 0) {
			t.Fatalf("size %d: clone %+v of %+v", size, c, src)
		}
		if size > 0 {
			c.Payload[0] = 8
			if src.Payload[0] != 7 {
				t.Fatalf("size %d: clone shares its payload with the original", size)
			}
		}
	}
}
