// Package wire defines the middleware's on-the-wire message model: a common
// envelope (Message), three interchangeable codecs (binary, XML, JSON), and
// length-prefixed CRC-checked framing for stream transports.
//
// Multiple codecs exist deliberately: the paper's interoperability feature
// (§3.9) calls for bridging middleware domains that speak different
// encodings, with XML as the semantic lingua franca. The interop package
// translates between these codecs without touching payload semantics.
package wire

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Kind classifies a message's role in an interaction.
type Kind uint8

// Message kinds. They start at 1 so the zero value is detectably invalid.
const (
	KindRequest Kind = iota + 1 // RPC request
	KindReply                   // RPC reply
	KindData                    // one-way data sample (transactions)
	KindEvent                   // publish-subscribe event
	KindAck                     // delivery acknowledgement
	KindControl                 // middleware-internal control traffic
	KindError                   // error reply
	KindShed                    // load-shed rejection: the request was never dispatched
)

// kindNames indexes Kind names for String; index 0 is the invalid zero value.
var kindNames = [...]string{"invalid", "request", "reply", "data", "event", "ack", "control", "error", "shed"}

// String returns the lower-case kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool { return k >= KindRequest && k <= KindShed }

// Message is the envelope every middleware interaction travels in,
// independent of codec and transport.
type Message struct {
	// ID uniquely identifies the message within its source node.
	ID uint64
	// Kind classifies the message.
	Kind Kind
	// Src and Dst are transport-independent node addresses.
	Src string
	Dst string
	// Topic names the service, queue, or event topic addressed.
	Topic string
	// Corr correlates replies and acks with the originating message ID.
	Corr uint64
	// Priority is a request's admission lane, and a KindShed reply's shed
	// lane: 0 unstamped, then 1 bulk, 2 default, 3 control; larger values
	// read as default. Peers that predate KindShed reject a shed reply as an
	// invalid message, not a retryable shed.
	Priority uint8
	// Deadline is the latest useful delivery time (zero means none). It
	// feeds the QoS benefit function and the transaction scheduler.
	Deadline time.Time
	// Headers carries extension metadata.
	Headers map[string]string
	// Payload is the opaque application body.
	Payload []byte

	// spare is the pooled buffer of a shell that a decode or Clone filled
	// with an empty payload. Payload stays nil, as on a fresh shell; the
	// buffer waits here for Recycle to hand it back with the shell.
	spare []byte
}

// ErrInvalidMessage reports an envelope that fails validation.
var ErrInvalidMessage = errors.New("wire: invalid message")

// Validate checks the envelope invariants shared by all codecs.
func (m *Message) Validate() error {
	if m == nil {
		return fmt.Errorf("%w: nil", ErrInvalidMessage)
	}
	if !m.Kind.Valid() {
		return fmt.Errorf("%w: bad kind %d", ErrInvalidMessage, m.Kind)
	}
	return nil
}

// Clone returns a deep copy of the message, which the caller owns: a recycled
// shell and payload buffer when there is one (see Recycle).
func (m *Message) Clone() *Message {
	if m == nil {
		return nil
	}
	out := messages.Get().(*Message)
	buf := out.Payload
	*out = *m
	if m.Headers != nil {
		out.Headers = make(map[string]string, len(m.Headers))
		for k, v := range m.Headers {
			out.Headers[k] = v
		}
	}
	out.Payload, out.spare = nil, nil
	if len(m.Payload) > 0 {
		out.Payload = append(buf[:0], m.Payload...)
	} else {
		out.spare = buf
	}
	return out
}

// Equal reports whether two messages are semantically identical.
func (m *Message) Equal(o *Message) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.ID != o.ID || m.Kind != o.Kind || m.Src != o.Src || m.Dst != o.Dst ||
		m.Topic != o.Topic || m.Corr != o.Corr || m.Priority != o.Priority {
		return false
	}
	if !m.Deadline.Equal(o.Deadline) {
		return false
	}
	if len(m.Headers) != len(o.Headers) {
		return false
	}
	for k, v := range m.Headers {
		if ov, ok := o.Headers[k]; !ok || ov != v {
			return false
		}
	}
	if len(m.Payload) != len(o.Payload) {
		return false
	}
	for i := range m.Payload {
		if m.Payload[i] != o.Payload[i] {
			return false
		}
	}
	return true
}

// headerKeys returns header keys sorted, for deterministic encodings.
func (m *Message) headerKeys() []string {
	keys := make([]string, 0, len(m.Headers))
	for k := range m.Headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Codec serializes messages. Implementations must be safe for concurrent use.
//
// Decode must not alias its input: the returned message has to remain valid
// after the caller reuses or mutates data, because connection readers decode
// out of buffers that are overwritten by the next frame (see FrameReader).
// All three shipped codecs never alias the input; a connection's reader may
// share equal envelope strings between the messages it decodes (strings are
// immutable, so a message cannot tell).
type Codec interface {
	// Name returns the codec's short identifier ("binary", "xml", "json").
	Name() string
	// ContentType returns the one-byte codec tag used in frames.
	ContentType() byte
	// Encode serializes the message.
	Encode(m *Message) ([]byte, error)
	// Decode parses a serialized message.
	Decode(data []byte) (*Message, error)
}

// AppendEncoder is the optional zero-allocation extension of Codec: encoding
// by appending to a caller-owned buffer. Batched connection writers use it to
// serialize straight into a pooled write buffer; codecs that cannot append
// (XML, JSON) fall back to Encode via EncodeAppend.
type AppendEncoder interface {
	// AppendEncode appends m's serialized form to buf and returns the
	// extended slice. On error buf is returned unchanged (same length).
	AppendEncode(buf []byte, m *Message) ([]byte, error)
}

// EncodeAppend serializes m with codec, appending to buf: the codec's
// AppendEncode when it has one, otherwise Encode plus a copy.
func EncodeAppend(codec Codec, buf []byte, m *Message) ([]byte, error) {
	if ae, ok := codec.(AppendEncoder); ok {
		return ae.AppendEncode(buf, m)
	}
	body, err := codec.Encode(m)
	if err != nil {
		return buf, err
	}
	return append(buf, body...), nil
}
