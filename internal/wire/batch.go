package wire

import (
	"io"
	"runtime"
	"sync"
)

// BatchWriter coalesces frames from any number of concurrent senders into
// batched writes: every Send encodes its message into a shared pending
// buffer, and the first sender to arrive while no flush is running becomes
// the flush leader, draining everything queued — its own frame plus whatever
// other senders appended meanwhile — in one Write call (the group-commit
// idiom).
//
// Senders overlap the leader in two ways. On several processors, or behind a
// writer that blocks, they arrive while the leader is inside Write and ride
// the next one. On one processor over a socket that never happens by itself:
// a non-blocking write does not give the processor up, so every sender finds
// no flush running and pays its own syscall. There the leader makes the
// overlap: told its connection's reader (ReplyTo), it yields the processor
// once before draining if the connection has received more frames than it has
// accepted for sending. A reply is then still owed to the peer, so another
// handler goroutine is likely runnable; it runs, appends and returns, and the
// leader writes the whole group. With one request in flight nothing is owed
// beyond the reply being sent, a connection that only sends or only calls has
// never received more than it sent, and a pending buffer of yieldBatchCap
// bytes or more is written at once — on those paths, and without ReplyTo, a
// Send is one write and no yield, so an idle connection pays nothing for the
// machinery. A connection that takes in messages it never answers (one-way
// traffic) reads as owing for good and yields once per send.
//
// Send encodes with the codec's append fast path (AppendEncoder) into the
// reused pending buffer, so a steady-state send performs zero allocations.
// The buffer is bounded: behind a writer that stays blocked (a peer that has
// stopped reading), a sender that finds more than maxRetainedScratch bytes
// queued waits for the leader to take them.
//
// Error semantics match a socket send buffer: a Send whose bytes were
// accepted before a later write failure may return nil even though the bytes
// never reached the wire. The first write error is sticky — every subsequent
// Send returns it — and the connection's receive side observes the same
// failure, so the endpoint layer tears the connection down either way.
type BatchWriter struct {
	w      io.Writer
	codec  Codec
	reader *FrameReader // the connection's receive half; nil: never yield

	mu       sync.Mutex
	room     sync.Cond // signalled when the leader empties pending, or fails
	pending  []byte    // frames queued for the active (or next) flush
	spare    []byte    // double-buffer: reused as the next pending
	flushing bool
	err      error

	frames  uint64 // frames accepted
	batches uint64 // Write calls issued
	yields  uint64 // times a flush leader yielded before draining
}

// NewBatchWriter returns a coalescing frame writer over w encoding with
// codec (Binary if nil).
func NewBatchWriter(w io.Writer, codec Codec) *BatchWriter {
	if codec == nil {
		codec = Binary{}
	}
	b := &BatchWriter{w: w, codec: codec}
	b.room.L = &b.mu
	return b
}

// ReplyTo names the reader of the connection b writes to, turning on the
// flush leader's yield (see BatchWriter). Call it before the first Send.
func (b *BatchWriter) ReplyTo(fr *FrameReader) { b.reader = fr }

// Send encodes m as one frame and queues it for the next batched write. It
// returns once the frame has been handed to the underlying writer — by this
// call or by the concurrent sender currently flushing.
func (b *BatchWriter) Send(m *Message) error {
	b.mu.Lock()
	for b.flushing && len(b.pending) > maxRetainedScratch {
		b.room.Wait()
	}
	if b.err != nil {
		err := b.err
		b.mu.Unlock()
		return err
	}
	out, err := AppendMessageFrame(b.pending, b.codec, m)
	if err != nil {
		b.mu.Unlock()
		return err
	}
	b.pending = out
	b.frames++
	if b.flushing {
		// The active flusher's drain loop will pick this frame up; returning
		// now is what lets k concurrent senders share one syscall.
		b.mu.Unlock()
		return nil
	}
	b.flushing = true
	if b.reader != nil && b.reader.Frames() > b.frames && len(b.pending) < yieldBatchCap {
		// A reply is still owed on this connection: let the goroutine that
		// will send it run first, so its frame leaves in this write.
		b.yields++
		b.mu.Unlock()
		runtime.Gosched()
		b.mu.Lock()
	}
	for b.err == nil && len(b.pending) > 0 {
		buf := b.pending
		b.pending = b.spare[:0]
		b.room.Broadcast()
		b.batches++
		b.mu.Unlock()
		_, werr := b.w.Write(buf)
		b.mu.Lock()
		if cap(buf) > maxRetainedScratch {
			buf = nil // one huge batch must not pin its buffer forever
		}
		b.spare = buf[:0]
		if werr != nil {
			b.err = werr
			b.room.Broadcast()
		}
	}
	b.flushing = false
	err = b.err
	b.mu.Unlock()
	return err
}

// Stats reports the number of frames accepted, batched Write calls issued
// and leader yields taken. frames/batches is the achieved coalescing factor.
func (b *BatchWriter) Stats() (frames, batches, yields uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.frames, b.batches, b.yields
}
