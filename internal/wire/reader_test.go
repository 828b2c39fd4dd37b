package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// What the receive path must not change: a FrameReader that parses frames in
// place and remembers envelope strings returns, for any stream, exactly what
// ReadFrame plus Binary.Decode return — and nothing it returns shares memory
// with the stream.

// readerNames is the pool scripted messages draw Src, Dst and Topic from:
// empty, ordinary, on both sides of maxRememberedName, and not UTF-8.
var readerNames = []string{
	"",
	"a",
	"127.0.0.1:40001",
	"127.0.0.1:40002",
	"sensors/bp",
	strings.Repeat("x", maxRememberedName-1),
	strings.Repeat("y", maxRememberedName),
	strings.Repeat("z", maxRememberedName+1),
	"\xff\xfe\x00 not utf-8",
}

// scriptMessages turns every four script bytes into one valid message: three
// picks from readerNames and a payload size. Sizes run from nothing past a
// 4 KiB buffer, and 0xFF makes a frame that outgrows the 64 KiB one too.
func scriptMessages(script []byte) []*Message {
	var out []*Message
	for i := 0; i+4 <= len(script); i += 4 {
		size := int(script[i+3]) * int(script[i+3]) / 8
		if script[i+3] == 0xFF {
			size = frameReaderBuffer + 1
		}
		m := &Message{
			ID:    uint64(i/4 + 1),
			Kind:  Kind(1 + i/4%7),
			Src:   readerNames[int(script[i])%len(readerNames)],
			Dst:   readerNames[int(script[i+1])%len(readerNames)],
			Topic: readerNames[int(script[i+2])%len(readerNames)],
		}
		if size > 0 {
			m.Payload = bytes.Repeat([]byte{script[i+3]}, size)
		}
		if script[i]&1 == 1 {
			m.Headers = map[string]string{"ndsm-lane": "control"}
		}
		out = append(out, m)
	}
	return out
}

func frameMessages(t testing.TB, msgs []*Message) []byte {
	t.Helper()
	var stream []byte
	for _, m := range msgs {
		var err error
		if stream, err = AppendMessageFrame(stream, Binary{}, m); err != nil {
			t.Fatal(err)
		}
	}
	return stream
}

// dribbleReader returns 1…max bytes per Read, so frames straddle every buffer
// boundary a bufio.Reader has.
type dribbleReader struct {
	data []byte
	max  int
	rng  *rand.Rand
}

func (r *dribbleReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := 1 + r.rng.Intn(r.max)
	n = min(n, len(p), len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// readerErrorClasses are the outcomes a receive loop tells apart.
var readerErrorClasses = []error{io.EOF, io.ErrUnexpectedEOF, ErrFrameCRC, ErrFrameTooLarge, ErrInvalidMessage}

// checkReadMessageStream reads stream through a FrameReader — dribbled, and
// behind 16 B, 4 KiB and 64 KiB buffers so frames fit, straddle and exceed
// them — and through the classic ReadMessage, which has no buffer and no
// memory, and requires the same messages and the same first error.
func checkReadMessageStream(t *testing.T, stream []byte, maxRead int, seed int64) {
	t.Helper()
	for _, size := range []int{16, 4 << 10, frameReaderBuffer} {
		src := &dribbleReader{data: stream, max: max(1, maxRead), rng: rand.New(rand.NewSource(seed))}
		fr := NewFrameReader(bufio.NewReaderSize(src, size))
		classic := bytes.NewReader(stream)
		for i := 0; ; i++ {
			got, err := fr.ReadMessage()
			want, werr := ReadMessage(classic)
			if (err == nil) != (werr == nil) {
				t.Fatalf("buffer %d, message %d: reader %v, classic %v", size, i, err, werr)
			}
			if err != nil {
				for _, class := range readerErrorClasses {
					if errors.Is(err, class) != errors.Is(werr, class) {
						t.Fatalf("buffer %d, message %d: error class %v: reader %v, classic %v", size, i, class, err, werr)
					}
				}
				break
			}
			if !got.Equal(want) {
				t.Fatalf("buffer %d, message %d:\n reader  %+v\n classic %+v", size, i, got, want)
			}
		}
	}
}

func TestReadMessageStreamMatchesDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 60; round++ {
		script := make([]byte, 4*(1+rng.Intn(24)))
		rng.Read(script) //nolint:errcheck
		if round%3 == 0 {
			// One binding's connection: the same envelope on every message.
			for i := 4; i < len(script); i += 4 {
				copy(script[i:i+3], script[:3])
			}
		}
		if round%10 != 0 {
			for i := 3; i < len(script); i += 4 {
				script[i] &= 0x7F // keep most rounds to frames of 2 KiB and less
			}
		}
		stream := frameMessages(t, scriptMessages(script))
		switch round % 4 {
		case 1:
			stream = stream[:len(stream)-1-rng.Intn(8)] // torn
		case 2:
			stream[rng.Intn(len(stream))] ^= 0x40 // corrupt
		}
		checkReadMessageStream(t, stream, 1+rng.Intn(300), int64(round))
	}
}

// FuzzReadMessageStream: a scripted run of valid messages followed by an
// arbitrary tail reads the same through the remembering, in-place FrameReader
// as through ReadFrame and Binary.Decode, up to and including the first error.
func FuzzReadMessageStream(f *testing.F) {
	f.Add([]byte{2, 3, 4, 8, 2, 3, 4, 8, 2, 3, 4, 8}, []byte{}, uint8(7))   // one envelope repeated
	f.Add([]byte{2, 3, 4, 8, 3, 2, 1, 9, 2, 3, 4, 8}, []byte{}, uint8(1))   // alternating
	f.Add([]byte{0, 0, 0, 0, 5, 6, 7, 40, 6, 7, 5, 1}, []byte{}, uint8(64)) // empty, 255/256/257 bytes
	f.Add([]byte{8, 8, 8, 200, 8, 1, 8, 255}, []byte{0, 0}, uint8(255))     // not UTF-8, a frame past 64 KiB, a torn header
	f.Add([]byte{}, frameStreamSeed(f, 3), uint8(3))                        // XML and JSON frames pass through
	f.Add([]byte{1, 2, 3, 4}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 1}, uint8(2))  // length past MaxFrameSize
	f.Fuzz(func(t *testing.T, script, tail []byte, maxRead uint8) {
		if len(script) > 64 {
			script = script[:64]
		}
		stream := append(frameMessages(t, scriptMessages(script)), tail...)
		checkReadMessageStream(t, stream, int(maxRead), int64(maxRead))
	})
}

// frameAtATimeReader never returns bytes of two frames from one Read, so
// whatever a bufio.Reader above it holds belongs to the frame being read.
type frameAtATimeReader struct {
	frames [][]byte
	sent   [][]byte // what has been handed out, for the test to scribble on
}

func (r *frameAtATimeReader) Read(p []byte) (int, error) {
	for len(r.frames) > 0 && len(r.frames[0]) == 0 {
		r.frames = r.frames[1:]
	}
	if len(r.frames) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.frames[0])
	r.sent = append(r.sent, r.frames[0][:n])
	r.frames[0] = r.frames[0][n:]
	return n, nil
}

// After each ReadMessage everything the reader could still point into — the
// stream delivered so far, the bufio buffer, the scratch — is overwritten;
// every message decoded before must be unchanged, remembered strings included.
func TestReadMessageSurvivesOverwrite(t *testing.T) {
	script := []byte{
		2, 3, 4, 8, 2, 3, 4, 8, // the repeat shares its three strings with the first
		3, 2, 4, 100, 2, 3, 1, 0,
		8, 8, 8, 255, // assembled in scratch under every buffer size
		2, 3, 4, 8, 5, 6, 7, 90, 2, 3, 4, 8,
	}
	want := scriptMessages(script)
	for _, size := range []int{16, 4 << 10, frameReaderBuffer} {
		src := &frameAtATimeReader{}
		for _, m := range want {
			src.frames = append(src.frames, frameMessages(t, []*Message{m}))
		}
		fr := NewFrameReader(bufio.NewReaderSize(src, size))
		var got []*Message
		for range want {
			m, err := fr.ReadMessage()
			if err != nil {
				t.Fatalf("buffer %d: %v", size, err)
			}
			got = append(got, m)
			buffered, _ := fr.br.Peek(fr.br.Buffered())
			for _, b := range append(src.sent, buffered, fr.scratch[:cap(fr.scratch)]) {
				for i := range b {
					b[i] = 0xAA
				}
			}
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("buffer %d: message %d changed after its bytes were overwritten:\n was %+v\n got %+v", size, i, want[i], got[i])
			}
		}
	}
}

// sameString reports whether a and b are one string in memory.
func sameString(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// A name longer than maxRememberedName is decoded and not kept — a peer cannot
// pin a frame's worth of string per field — and does not evict the short name
// before it.
func TestReadMessageBoundsRememberedNames(t *testing.T) {
	short := &Message{ID: 1, Kind: KindEvent, Src: "pub", Dst: "sub", Topic: "t/0"}
	atLimit := &Message{ID: 2, Kind: KindEvent, Src: "pub", Dst: "sub", Topic: strings.Repeat("l", maxRememberedName)}
	over := &Message{ID: 3, Kind: KindEvent, Src: "pub", Dst: "sub", Topic: strings.Repeat("o", maxRememberedName+1)}
	huge := &Message{ID: 4, Kind: KindEvent, Src: "pub", Dst: "sub", Topic: strings.Repeat("h", 1<<20)}
	in := []*Message{short, over, short, huge, short, atLimit, atLimit}
	fr := NewFrameReader(bytes.NewReader(frameMessages(t, in)))
	var got []*Message
	for i, want := range in {
		m, err := fr.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if !m.Equal(want) {
			t.Fatalf("message %d decoded wrong (topic of %d bytes)", i, len(want.Topic))
		}
		if n := len(fr.names.topic); n > maxRememberedName {
			t.Fatalf("after message %d the reader remembers a %d-byte topic", i, n)
		}
		got = append(got, m)
	}
	if !sameString(got[0].Topic, got[2].Topic) || !sameString(got[0].Topic, got[4].Topic) {
		t.Fatal("a long topic evicted the short one remembered before it")
	}
	if !sameString(got[5].Topic, got[6].Topic) {
		t.Fatalf("a %d-byte topic was not remembered", maxRememberedName)
	}
	for i := range got[1:] {
		if !sameString(got[0].Src, got[i+1].Src) || !sameString(got[0].Dst, got[i+1].Dst) {
			t.Fatalf("message %d: Src/Dst not shared while Topic changed", i+1)
		}
	}
}

// Binary.Decode has no memory: two decodes of one input share nothing.
func TestBinaryDecodeRemembersNothing(t *testing.T) {
	data, err := Binary{}.Encode(fuzzSeedMessage())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Binary{}.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Binary{}.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if sameString(a.Src, b.Src) || sameString(a.Dst, b.Dst) || sameString(a.Topic, b.Topic) {
		t.Fatal("Binary.Decode shared a string between two messages")
	}
}

// repeatReader replays a byte pattern forever.
type repeatReader struct {
	pattern []byte
	off     int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.pattern[r.off:])
		n += c
		r.off = (r.off + c) % len(r.pattern)
	}
	return n, nil
}

// ReadMessage allocates what the message owns and nothing else: the Message
// and its payload when the envelope repeats or only the topic moves among
// remembered ones, plus one string per Src or Dst that differs from the
// message before. An owner that recycles what it has read pays for neither
// the Message nor the payload: only the strings are left.
func TestReadMessageAllocs(t *testing.T) {
	base := Message{ID: 1, Kind: KindRequest, Src: "127.0.0.1:40001", Dst: "127.0.0.1:40002", Topic: "echo", Payload: make([]byte, 64)}
	alternate := func(other func(m *Message)) []*Message {
		m := base
		other(&m)
		return []*Message{&base, &m}
	}
	var rotation []*Message
	for i := 0; i < 16; i++ {
		m := base
		m.Topic = fmt.Sprintf("bench/%04x", i)
		rotation = append(rotation, &m)
	}
	// Two collections empty the pool of what other tests recycled, so the
	// reader that keeps its messages is seen paying for every one.
	runtime.GC()
	runtime.GC()
	for _, tc := range []struct {
		name    string
		changed int
		pattern []*Message
	}{
		{"repeated envelope", 0, alternate(func(m *Message) {})},
		{"topic alternates", 0, alternate(func(m *Message) { m.Topic = "echo/2" })},
		{"16 topics rotate", 0, rotation},
		{"src and topic alternate", 1, alternate(func(m *Message) { m.Src, m.Topic = "127.0.0.1:40003", "echo/2" })},
		{"all three alternate", 2, alternate(func(m *Message) { m.Src, m.Dst, m.Topic = "127.0.0.1:40003", "127.0.0.1:40004", "echo/2" })},
	} {
		fr := NewFrameReader(&repeatReader{pattern: frameMessages(t, tc.pattern)})
		for range tc.pattern { // warm up: every topic is seen once
			if _, err := fr.ReadMessage(); err != nil {
				t.Fatal(err)
			}
		}
		want := float64(2 + tc.changed)
		if allocs := testing.AllocsPerRun(500, func() {
			if _, err := fr.ReadMessage(); err != nil {
				t.Fatal(err)
			}
		}); allocs != want {
			t.Errorf("%s: ReadMessage allocates %.2f objects, want %.0f", tc.name, allocs, want)
		}
	}
	if poisonRecycled {
		return // under the race detector sync.Pool drops entries at random
	}
	fr := NewFrameReader(&repeatReader{pattern: frameMessages(t, rotation)})
	if allocs := testing.AllocsPerRun(500, func() {
		m, err := fr.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		Recycle(m)
	}); allocs != 0 {
		t.Errorf("recycled: ReadMessage allocates %.2f objects, want 0", allocs)
	}
}

// The topic table stays inside its bounds whatever a peer sends: never more
// than maxRememberedTopics entries, never a string over maxRememberedName, and
// a topic too long to keep evicts nothing.
func TestReadMessageBoundsRememberedTopics(t *testing.T) {
	var in []*Message
	for i := 0; i < 3*maxRememberedTopics; i++ {
		in = append(in, &Message{ID: uint64(i + 1), Kind: KindEvent, Topic: fmt.Sprintf("t/%d", i)})
		if i%5 == 0 {
			in = append(in, &Message{ID: uint64(i + 1), Kind: KindEvent, Topic: strings.Repeat("o", maxRememberedName+1+i)})
		}
	}
	in = append(in, &Message{ID: 1, Kind: KindEvent, Topic: strings.Repeat("h", 1<<20)})
	fr := NewFrameReader(bytes.NewReader(frameMessages(t, in)))
	for i, want := range in {
		before := len(fr.names.topics)
		m, err := fr.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if !m.Equal(want) {
			t.Fatalf("message %d decoded wrong (topic of %d bytes)", i, len(want.Topic))
		}
		if n := len(fr.names.topics); n > maxRememberedTopics {
			t.Fatalf("after message %d the reader remembers %d topics", i, n)
		}
		for k, v := range fr.names.topics {
			if len(k) > maxRememberedName || k != v {
				t.Fatalf("after message %d the table holds a %d-byte key for a %d-byte topic", i, len(k), len(v))
			}
		}
		if len(want.Topic) > maxRememberedName && (len(fr.names.topics) != before || len(fr.names.topic) > maxRememberedName) {
			t.Fatalf("message %d: a %d-byte topic changed what the reader remembers", i, len(want.Topic))
		}
	}
}

// A frame that fits the bufio buffer is parsed there: the scratch buffer is
// for frames that outgrow it and is never built otherwise.
func TestFrameReaderParsesInPlace(t *testing.T) {
	large := &Message{ID: 1, Kind: KindRequest, Topic: "t", Payload: make([]byte, 16<<10)}
	fr := NewFrameReader(&repeatReader{pattern: frameMessages(t, []*Message{large})})
	for i := 0; i < 64; i++ { // frames land at every offset of the 64 KiB buffer
		if _, err := fr.ReadMessage(); err != nil {
			t.Fatal(err)
		}
	}
	if fr.scratch != nil {
		t.Fatalf("a 16 KiB frame behind a 64 KiB buffer built a %d-byte scratch", cap(fr.scratch))
	}
	if got := fr.Frames(); got != 64 {
		t.Fatalf("Frames() = %d, want 64", got)
	}
	oversize := &Message{ID: 2, Kind: KindRequest, Topic: "t", Payload: make([]byte, frameReaderBuffer)}
	fr = NewFrameReader(bytes.NewReader(frameMessages(t, []*Message{oversize, large})))
	for _, want := range []*Message{oversize, large} {
		if m, err := fr.ReadMessage(); err != nil || !m.Equal(want) {
			t.Fatalf("oversize then in-place frame: %v", err)
		}
	}
	if fr.scratch == nil {
		t.Fatal("a frame past the buffer did not go through scratch")
	}
}

// For profiles, not claims: the benchmark's end-to-end numbers are the
// evidence (benchmark/). The two 64 B rows price the topic table: one topic
// never reaches it, sixteen in rotation hit it on every message.
func BenchmarkReadMessage(b *testing.B) {
	one := func(size int) []*Message {
		return []*Message{{ID: 1, Kind: KindRequest, Src: "127.0.0.1:40001", Dst: "127.0.0.1:40002", Topic: "echo", Payload: make([]byte, size)}}
	}
	var rotation []*Message
	for i := 0; i < 16; i++ {
		m := *one(64)[0]
		m.Topic = fmt.Sprintf("bench/%04x", i)
		rotation = append(rotation, &m)
	}
	for _, bc := range []struct {
		name string
		msgs []*Message
	}{
		{"64B", one(64)},
		{"64B/16topics", rotation},
		{"16KiB", one(16 << 10)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			stream := frameMessages(b, bc.msgs)
			fr := NewFrameReader(&repeatReader{pattern: stream})
			b.SetBytes(int64(len(stream) / len(bc.msgs)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fr.ReadMessage(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
