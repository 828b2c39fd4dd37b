package wire

import "sync"

// maxRecycledPayload is the largest payload buffer a recycled message keeps:
// what one read of a FrameReader can hold. A bigger one is dropped, so a rare
// huge request does not sit in the pool at its size.
const maxRecycledPayload = frameReaderBuffer

// Sentinels a race build leaves in a recycled shell (see Recycle).
const (
	poisonByte  = 0xDB
	poisonTopic = "wire: message used after Recycle"
	poisonID    = 0xDBDBDBDBDBDBDBDB
)

// messages holds decoded messages their owners are done with: a zeroed shell
// and, as its zero-length Payload, the buffer it last carried. Recycle is the
// only way in; decodeBinary and Message.Clone are the ways out, and because
// the shell is zeroed they fill it exactly as they fill a new one. A message
// whose payload is empty keeps the buffer aside, its Payload nil as a fresh
// decode leaves it, so an acknowledgement does not cost the next payload its
// buffer.
var messages = sync.Pool{New: func() any { return new(Message) }}

// Recycle hands back a message nothing refers to any more. What Conn.Recv, a
// decode or Clone returned belongs to whoever received it, and that owner may
// call Recycle once it is done with the message and with every slice of its
// Payload; a later decode or Clone then reuses the shell and the payload
// buffer. Headers are never reused, and strings are immutable, so a kept
// Headers map, Topic, Src or Dst stays good. Recycling is optional — a message
// that is not recycled is garbage like any other — and any message may be
// recycled, whatever built it, provided its Payload is the caller's to give:
// the pool takes that memory with the shell, so a message whose Payload is
// borrowed (a request envelope carrying a caller's bytes) must not come here.
// A message whose Payload is nil or empty gives back the buffer its shell
// came with, and a shell whose payload the owner kept goes back bare once the
// owner sets its Payload to nil.
//
// Under the race detector the buffer is filled with 0xDB and the shell's
// Topic and ID are stamped before pooling, so a test run shows a kept request
// as garbage at once instead of as another request's bytes some day.
func Recycle(m *Message) {
	if m == nil {
		return
	}
	buf := m.Payload[:0]
	if cap(buf) == 0 {
		buf = m.spare[:0]
	}
	if cap(buf) > maxRecycledPayload {
		buf = nil
	}
	*m = Message{Payload: buf}
	if poisonRecycled {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = poisonByte
		}
		m.Topic, m.ID = poisonTopic, poisonID
	}
	messages.Put(m)
}
