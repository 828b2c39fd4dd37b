package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"
)

// Content-type tags carried in frames to identify the codec of the body.
const (
	ContentBinary byte = 1
	ContentXML    byte = 2
	ContentJSON   byte = 3
)

// binaryMagic guards against decoding garbage as a binary message.
const binaryMagic = 0xD5

// binaryVersion is bumped on incompatible format changes.
const binaryVersion = 1

// Binary is the compact native codec: a magic/version header followed by
// varint-length-prefixed fields. It is the default codec for node-to-node
// traffic; XML and JSON exist for interoperability (§3.9).
type Binary struct{}

var _ Codec = Binary{}

// Name implements Codec.
func (Binary) Name() string { return "binary" }

// ContentType implements Codec.
func (Binary) ContentType() byte { return ContentBinary }

// Encode implements Codec.
func (Binary) Encode(m *Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// Rough size estimate to avoid growth: fixed fields + strings + payload.
	size := 64 + len(m.Src) + len(m.Dst) + len(m.Topic) + len(m.Payload)
	for k, v := range m.Headers {
		size += len(k) + len(v) + 10
	}
	return Binary{}.AppendEncode(make([]byte, 0, size), m)
}

// AppendEncode implements AppendEncoder: it serializes m by appending to buf,
// allocating only when buf's capacity runs out (or to sort more than eight
// header keys). This is the hot-path form the batched connection writers use
// to encode straight into a pooled, reused write buffer.
func (Binary) AppendEncode(buf []byte, m *Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return buf, err
	}
	buf = append(buf, binaryMagic, binaryVersion, byte(m.Kind), m.Priority)
	buf = binary.AppendUvarint(buf, m.ID)
	buf = binary.AppendUvarint(buf, m.Corr)
	var deadline int64
	if !m.Deadline.IsZero() {
		deadline = m.Deadline.UnixNano()
	}
	buf = binary.AppendVarint(buf, deadline)
	buf = appendString(buf, m.Src)
	buf = appendString(buf, m.Dst)
	buf = appendString(buf, m.Topic)
	buf = binary.AppendUvarint(buf, uint64(len(m.Headers)))
	if n := len(m.Headers); n > 0 {
		// Sorted keys make the encoding deterministic. Traced requests carry
		// two or three headers: sort them on the stack.
		var stack [8]string
		keys := stack[:0]
		if n > len(stack) {
			keys = make([]string, 0, n)
		}
		for k := range m.Headers {
			keys = append(keys, k)
		}
		if n > 1 {
			slices.Sort(keys)
		}
		for _, k := range keys {
			buf = appendString(buf, k)
			buf = appendString(buf, m.Headers[k])
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Payload)))
	buf = append(buf, m.Payload...)
	return buf, nil
}

// Decode implements Codec.
func (Binary) Decode(data []byte) (*Message, error) { return decodeBinary(data, nil) }

// envelopeNames is what a FrameReader remembers of the envelopes it decoded.
// Src and Dst are one value each, not a table, because a connection carries
// one of each in a direction and a shared table would make the count depend on
// how the names (an ephemeral port among them) hash. Topic is the last value
// and, behind it, a bounded table: a subscriber's connection, a broker's
// publisher connection and an rpc client calling several services each cycle
// through a few.
type envelopeNames struct {
	src, dst, topic string
	topics          map[string]string // every remembered topic, keyed by itself
}

// decodeBinary is Decode with a memory: an envelope string whose bytes equal
// one in names is shared, not copied (strings are immutable, so the message
// still does not alias data). A nil names remembers nothing. The message is a
// recycled one when there is one (see Recycle), its payload copied into the
// buffer that came with it when that is big enough; an empty payload leaves
// the buffer with the shell.
func decodeBinary(data []byte, names *envelopeNames) (*Message, error) {
	if names == nil {
		names = new(envelopeNames) // does not escape: empty, so only "" ever matches
	}
	d := &decoder{buf: data}
	magic := d.byte()
	version := d.byte()
	if d.err == nil && magic != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic 0x%02x", ErrInvalidMessage, magic)
	}
	if d.err == nil && version != binaryVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrInvalidMessage, version)
	}
	m := messages.Get().(*Message)
	buf := m.Payload
	m.Kind = Kind(d.byte())
	m.Priority = d.byte()
	m.ID = d.uvarint()
	m.Corr = d.uvarint()
	if ns := d.varint(); ns != 0 && d.err == nil {
		m.Deadline = time.Unix(0, ns).UTC()
	}
	m.Src = d.name(&names.src, nil)
	m.Dst = d.name(&names.dst, nil)
	m.Topic = d.name(&names.topic, names.topics)
	if n := d.uvarint(); n > uint64(len(d.buf)) && d.err == nil {
		d.err = fmt.Errorf("header count %d exceeds input", n)
	} else if n > 0 && d.err == nil {
		m.Headers = make(map[string]string, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			k := d.string()
			m.Headers[k] = d.string()
		}
	}
	if m.Payload = d.bytes(buf); m.Payload == nil {
		m.spare = buf
	}
	// A refused message goes back zeroed: the next decode sees none of its fields.
	if d.err != nil {
		Recycle(m)
		return nil, fmt.Errorf("%w: %v", ErrInvalidMessage, d.err)
	}
	if err := m.Validate(); err != nil {
		Recycle(m)
		return nil, err
	}
	return m, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder is a cursor over a byte slice that records the first error and
// makes subsequent reads no-ops, keeping decode logic linear.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated %s", msg)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fail("byte")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// view reads a length-prefixed field and returns it still aliasing the input;
// what names the field in the truncation error.
func (d *decoder) view(what string) []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail(what)
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) string() string { return string(d.view("string")) }

// name reads a string as string does, but shares instead of copying when it
// can: *last itself when the bytes equal it (the comparison does not allocate,
// and stays first, so a connection with one name never hashes), then the entry
// of table they equal (nor does the lookup). A new string short enough to keep
// is remembered in both; table is cleared when full, so what a message
// allocates is a function of the name sequence alone. A nil table keeps none.
func (d *decoder) name(last *string, table map[string]string) string {
	b := d.view("string")
	if len(b) == 0 {
		return ""
	}
	if string(b) == *last {
		return *last
	}
	if len(b) > maxRememberedName {
		return string(b)
	}
	s, known := table[string(b)]
	if !known {
		s = string(b)
		if table != nil {
			if len(table) >= maxRememberedTopics {
				clear(table)
			}
			table[s] = s
		}
	}
	*last = s
	return s
}

// bytes reads a length-prefixed field into buf's memory, or into new memory
// when buf is too small (append to an empty slice allocates exactly that,
// without zeroing what the copy then overwrites). An empty field is nil.
func (d *decoder) bytes(buf []byte) []byte {
	src := d.view("bytes")
	if len(src) == 0 {
		return nil
	}
	return append(buf[:0], src...)
}
