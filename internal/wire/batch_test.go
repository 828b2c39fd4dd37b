package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

func batchTestMessage(i int) *Message {
	return &Message{
		ID:      uint64(i + 1),
		Kind:    KindRequest,
		Src:     "client",
		Dst:     "server",
		Topic:   fmt.Sprintf("topic-%d", i%7),
		Corr:    uint64(i),
		Payload: bytes.Repeat([]byte{byte(i)}, i%64),
	}
}

// AppendFrame must be byte-identical to WriteFrame: the batched and unbatched
// paths put the same bytes on the wire.
func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	body := []byte("hello frame")
	var streamed bytes.Buffer
	if err := WriteFrame(&streamed, ContentBinary, body); err != nil {
		t.Fatal(err)
	}
	appended, err := AppendFrame(nil, ContentBinary, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), appended) {
		t.Fatalf("AppendFrame diverged from WriteFrame:\n %x\n %x", streamed.Bytes(), appended)
	}
	ct, got, err := ReadFrame(bytes.NewReader(appended))
	if err != nil || ct != ContentBinary || !bytes.Equal(got, body) {
		t.Fatalf("ReadFrame(AppendFrame) = %d %q %v", ct, got, err)
	}
}

// AppendMessageFrame must interoperate with the classic per-message reader
// for every codec, including the non-append ones.
func TestAppendMessageFrameRoundTrip(t *testing.T) {
	m := fuzzSeedMessage()
	for _, codec := range fuzzCodecs {
		buf, err := AppendMessageFrame(nil, codec, m)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		got, err := ReadMessage(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%s: read back: %v", codec.Name(), err)
		}
		if got.ID != m.ID || got.Topic != m.Topic || !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("%s: round trip changed message: %+v", codec.Name(), got)
		}
	}
}

// chunkReader yields the underlying bytes in caller-chosen chunk sizes,
// exercising frame reads that span split and merged read boundaries.
type chunkReader struct {
	data   []byte
	chunks []int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(r.data)
	if len(r.chunks) > 0 {
		n = r.chunks[0]
		r.chunks = r.chunks[1:]
		if n > len(r.data) {
			n = len(r.data)
		}
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// Property: encode → coalesce → split at arbitrary boundaries → decode
// round-trips any message sequence. This is the wire-level guarantee the
// batched hot path rests on.
func TestBatchCoalesceSplitDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		count := 1 + rng.Intn(40)
		var msgs []*Message
		bw := NewBatchWriter(io.Discard, Binary{})
		var wire []byte
		for i := 0; i < count; i++ {
			m := batchTestMessage(rng.Intn(1000))
			if rng.Intn(4) == 0 {
				m.Headers = map[string]string{"k": "v", "n": fmt.Sprint(i)}
			}
			if rng.Intn(3) == 0 {
				m.Deadline = time.Unix(int64(1000+i), 0).UTC()
			}
			msgs = append(msgs, m)
			var err error
			wire, err = AppendMessageFrame(wire, Binary{}, m)
			if err != nil {
				t.Fatal(err)
			}
			if err := bw.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		// Split the coalesced bytes at random boundaries (including 1-byte
		// reads) and decode the sequence back.
		var chunks []int
		for rem := len(wire); rem > 0; {
			n := 1 + rng.Intn(rem)
			chunks = append(chunks, n)
			rem -= n
		}
		fr := NewFrameReader(&chunkReader{data: wire, chunks: chunks})
		for i, want := range msgs {
			got, err := fr.ReadMessage()
			if err != nil {
				t.Fatalf("round %d: frame %d/%d: %v", round, i, count, err)
			}
			if !got.Equal(want) {
				t.Fatalf("round %d: frame %d changed:\n was %+v\n got %+v", round, i, want, got)
			}
		}
		if _, err := fr.ReadMessage(); !errors.Is(err, io.EOF) {
			t.Fatalf("round %d: trailing read = %v, want EOF", round, err)
		}
	}
}

// blockingWriter parks the first Write until released, so concurrent senders
// pile frames into the pending buffer behind the active flusher.
type blockingWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	gate    chan struct{}
	writes  int
	blocked chan struct{} // signalled when the first write is parked
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	first := w.writes == 0
	w.writes++
	w.mu.Unlock()
	if first {
		close(w.blocked)
		<-w.gate
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// Concurrent senders behind a slow writer must coalesce: all frames arrive,
// in many fewer writes than frames.
func TestBatchWriterCoalescesConcurrentSenders(t *testing.T) {
	const senders = 32
	w := &blockingWriter{gate: make(chan struct{}), blocked: make(chan struct{})}
	bw := NewBatchWriter(w, Binary{})

	// First sender becomes the flusher and parks inside Write.
	firstDone := make(chan error, 1)
	go func() { firstDone <- bw.Send(batchTestMessage(0)) }()
	<-w.blocked

	// The rest enqueue while the flusher is parked; they must all return
	// without issuing a Write of their own.
	var wg sync.WaitGroup
	for i := 1; i <= senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := bw.Send(batchTestMessage(i)); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(w.gate)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}

	frames, batches, _ := bw.Stats()
	if frames != senders+1 {
		t.Fatalf("frames = %d, want %d", frames, senders+1)
	}
	// One write for the parked first frame, one (or a handful) for the
	// coalesced rest.
	if batches >= frames {
		t.Fatalf("no coalescing: %d batches for %d frames", batches, frames)
	}

	// Every frame must be present and intact.
	w.mu.Lock()
	data := append([]byte(nil), w.buf.Bytes()...)
	w.mu.Unlock()
	fr := NewFrameReader(bytes.NewReader(data))
	seen := make(map[uint64]bool)
	for {
		m, err := fr.ReadMessage()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seen[m.ID] = true
	}
	if len(seen) != senders+1 {
		t.Fatalf("read %d distinct frames, want %d", len(seen), senders+1)
	}
}

// Behind a writer that stays blocked the follower path is bounded: once more
// than maxRetainedScratch bytes are queued, further senders wait for the
// leader to take them instead of growing pending, and every frame still
// arrives, in order, after release.
func TestBatchWriterBoundsPendingBehindBlockedWriter(t *testing.T) {
	w := &blockingWriter{gate: make(chan struct{}), blocked: make(chan struct{})}
	bw := NewBatchWriter(w, Binary{})
	msg := func(id int) *Message {
		return &Message{ID: uint64(id), Kind: KindData, Payload: make([]byte, 64<<10)}
	}
	frame, err := AppendMessageFrame(nil, Binary{}, msg(1))
	if err != nil {
		t.Fatal(err)
	}
	pendingLen := func() int {
		bw.mu.Lock()
		defer bw.mu.Unlock()
		return len(bw.pending)
	}

	firstDone := make(chan error, 1)
	go func() { firstDone <- bw.Send(msg(1)) }()
	<-w.blocked

	// Followers return at once until the bound is crossed...
	next := 2
	for pendingLen() <= maxRetainedScratch {
		if err := bw.Send(msg(next)); err != nil {
			t.Fatal(err)
		}
		next++
	}
	// ...and from there they wait.
	const waiters = 4
	started := make(chan struct{}, waiters)
	done := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func(id int) {
			started <- struct{}{}
			done <- bw.Send(msg(id))
		}(next + i)
	}
	for i := 0; i < waiters; i++ {
		<-started
	}
	select {
	case err := <-done:
		t.Fatalf("a sender past the bound returned (%v) while the flush was blocked", err)
	case <-time.After(20 * time.Millisecond):
	}
	if n := pendingLen(); n > maxRetainedScratch+len(frame) {
		t.Fatalf("pending = %d bytes, bound is %d + one %d-byte frame", n, maxRetainedScratch, len(frame))
	}

	close(w.gate)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < waiters; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	total := next + waiters - 1
	w.mu.Lock()
	fr := NewFrameReader(bytes.NewReader(w.buf.Bytes()))
	defer w.mu.Unlock()
	for id := 1; id <= total; id++ {
		m, err := fr.ReadMessage()
		if err != nil {
			t.Fatalf("frame %d/%d: %v", id, total, err)
		}
		// The waiters raced each other; everything before them is ordered.
		if id < next && m.ID != uint64(id) {
			t.Fatalf("frame %d carries id %d", id, m.ID)
		}
	}
	if _, err := fr.ReadMessage(); !errors.Is(err, io.EOF) {
		t.Fatalf("trailing read = %v, want EOF", err)
	}
}

type failingWriter struct{ calls int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	return 0, errors.New("wire down")
}

// A write failure is sticky: later sends fail fast without touching the
// writer again.
func TestBatchWriterStickyError(t *testing.T) {
	w := &failingWriter{}
	bw := NewBatchWriter(w, Binary{})
	if err := bw.Send(batchTestMessage(1)); err == nil {
		t.Fatal("send over failed writer succeeded")
	}
	calls := w.calls
	if err := bw.Send(batchTestMessage(2)); err == nil {
		t.Fatal("send after sticky error succeeded")
	}
	if w.calls != calls {
		t.Fatalf("sticky error still reached the writer (%d calls, was %d)", w.calls, calls)
	}
}

// Pool-aliasing guard: a message decoded off a FrameReader must stay intact
// after the reader's scratch buffer is overwritten by subsequent frames and
// even scribbled on directly — decoded messages must not retain pool-owned
// memory (the latent bug class batching would otherwise introduce).
func TestDecodedMessageDoesNotAliasScratch(t *testing.T) {
	for _, codec := range fuzzCodecs {
		first := fuzzSeedMessage()
		var stream []byte
		var err error
		stream, err = AppendMessageFrame(stream, codec, first)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		second := batchTestMessage(9)
		stream, err = AppendMessageFrame(stream, codec, second)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}

		fr := NewFrameReader(bytes.NewReader(stream))
		got, err := fr.ReadMessage()
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		// Overwrite the scratch by reading the next frame, then scribble over
		// it outright — simulating the pool handing the buffer to another
		// connection.
		if _, err := fr.ReadMessage(); err != nil {
			t.Fatalf("%s: second read: %v", codec.Name(), err)
		}
		for i := range fr.scratch {
			fr.scratch[i] = 0xAA
		}
		if !got.Equal(first) {
			t.Fatalf("%s: decoded message aliases reader scratch:\n was %+v\n got %+v",
				codec.Name(), first, got)
		}
	}
}

// Direct form of the aliasing guard: every codec's Decode must copy out of
// the input buffer it is handed.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	for _, codec := range fuzzCodecs {
		want := fuzzSeedMessage()
		data, err := codec.Encode(want)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		got, err := codec.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		for i := range data {
			data[i] = 0x55
		}
		if !got.Equal(want) {
			t.Fatalf("%s: decoded message aliases input buffer", codec.Name())
		}
	}
}

// The steady-state batched send path — append-encode into the reused pending
// buffer, one Write — must not allocate. This is the wire half of the
// zero-alloc hot-path guarantee; the endpoint half is pinned in
// internal/endpoint.
func TestBatchWriterSendZeroAlloc(t *testing.T) {
	bw := NewBatchWriter(io.Discard, Binary{})
	m := &Message{ID: 1, Kind: KindRequest, Src: "c", Dst: "s", Topic: "t", Payload: make([]byte, 64)}
	// Warm up the pending/spare double buffer.
	for i := 0; i < 8; i++ {
		if err := bw.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := bw.Send(m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("BatchWriter.Send allocates %.1f allocs/op in steady state, want 0", allocs)
	}
}

// Binary append-encoding into a warm buffer must not allocate (headerless
// message — the tracing-off shape).
func TestAppendEncodeZeroAlloc(t *testing.T) {
	m := &Message{ID: 1, Kind: KindRequest, Src: "c", Dst: "s", Topic: "t", Payload: make([]byte, 64)}
	buf := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(200, func() {
		out, err := (Binary{}).AppendEncode(buf[:0], m)
		if err != nil || len(out) == 0 {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AppendEncode allocates %.1f allocs/op, want 0", allocs)
	}
}

// The same with headers — every traced request has them: the keys are
// collected and sorted on the stack, one key or several.
func TestAppendEncodeHeadersZeroAlloc(t *testing.T) {
	for _, headers := range []map[string]string{
		{"ndsm-lane": "control"},
		{"trace-id": "00000000deadbeef", "span-id": "0000000000000042"},
	} {
		m := &Message{ID: 1, Kind: KindRequest, Src: "c", Dst: "s", Topic: "t", Headers: headers, Payload: make([]byte, 64)}
		buf := make([]byte, 0, 512)
		if allocs := testing.AllocsPerRun(200, func() {
			out, err := (Binary{}).AppendEncode(buf[:0], m)
			if err != nil || len(out) == 0 {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("AppendEncode with %d headers allocates %.1f allocs/op, want 0", len(headers), allocs)
		}
	}
}

// allocMessage is a request as a traced caller sends it: one header, 64 bytes
// of payload.
func allocMessage() *Message {
	return &Message{
		ID:       42,
		Kind:     KindRequest,
		Src:      "consumer-1",
		Dst:      "supplier-7",
		Topic:    "sensor/bp",
		Priority: 3,
		Deadline: time.Unix(1000, 0),
		Headers:  map[string]string{"trace": "abc123"},
		Payload:  make([]byte, 64),
	}
}

// Binary.Encode allocates the buffer it returns and nothing else.
func TestBinaryEncodeAllocs(t *testing.T) {
	m := allocMessage()
	const want = 1
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := (Binary{}).Encode(m); err != nil {
			t.Fatal(err)
		}
	}); allocs > want {
		t.Fatalf("Binary.Encode allocates %.1f objects, want at most %d", allocs, want)
	}
}

// Binary.Decode, with nothing recycled to draw on, allocates what the message
// owns: the Message, its payload, Src, Dst and Topic, the header map and its
// bucket, and the header's key and value.
func TestBinaryDecodeAllocs(t *testing.T) {
	data, err := (Binary{}).Encode(allocMessage())
	if err != nil {
		t.Fatal(err)
	}
	// Two collections empty the pool of what other tests recycled.
	runtime.GC()
	runtime.GC()
	const want = 9
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := (Binary{}).Decode(data); err != nil {
			t.Fatal(err)
		}
	}); allocs > want {
		t.Fatalf("Binary.Decode allocates %.1f objects, want at most %d", allocs, want)
	}
}

// Frame reads in steady state reuse the scratch buffer: no allocations.
func TestFrameReaderNextZeroAlloc(t *testing.T) {
	m := &Message{ID: 1, Kind: KindRequest, Topic: "t", Payload: make([]byte, 64)}
	frame, err := AppendMessageFrame(nil, Binary{}, m)
	if err != nil {
		t.Fatal(err)
	}
	stream := bytes.Repeat(frame, 4096)
	r := bytes.NewReader(stream)
	fr := NewFrameReader(r)
	if _, _, err := fr.Next(); err != nil { // warm the scratch
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("FrameReader.Next allocates %.1f allocs/op, want 0", allocs)
	}
}

// Mid-frame truncation must read as ErrUnexpectedEOF, a clean boundary as
// io.EOF — the distinction the endpoint layer uses to tell shutdown from a
// torn connection.
func TestFrameReaderTruncation(t *testing.T) {
	frame, err := AppendMessageFrame(nil, Binary{}, batchTestMessage(3))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(frame); cut++ {
		fr := NewFrameReader(bytes.NewReader(frame[:cut]))
		if _, _, err := fr.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(frame))
	if _, _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("clean boundary err = %v, want io.EOF", err)
	}
}
