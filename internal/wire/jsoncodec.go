package wire

import (
	"encoding/json"
	"fmt"
	"time"
)

// JSON is the web-facing codec; the paper's survey notes Internet/WWW
// integration as a middleware driver, and JSON is the modern stand-in for
// the "web-based interaction" technologies of §3.6.
type JSON struct{}

var _ Codec = JSON{}

// jsonEnvelope mirrors Message with tagged, wire-stable field names.
type jsonEnvelope struct {
	ID       uint64            `json:"id"`
	Kind     string            `json:"kind"`
	Corr     uint64            `json:"corr,omitempty"`
	Priority uint8             `json:"priority,omitempty"`
	Src      string            `json:"src,omitempty"`
	Dst      string            `json:"dst,omitempty"`
	Topic    string            `json:"topic,omitempty"`
	Deadline string            `json:"deadline,omitempty"`
	Headers  map[string]string `json:"headers,omitempty"`
	Payload  []byte            `json:"payload,omitempty"` // base64 via encoding/json
}

// Name implements Codec.
func (JSON) Name() string { return "json" }

// ContentType implements Codec.
func (JSON) ContentType() byte { return ContentJSON }

// Encode implements Codec.
func (JSON) Encode(m *Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	env := jsonEnvelope{
		ID:       m.ID,
		Kind:     m.Kind.String(),
		Corr:     m.Corr,
		Priority: m.Priority,
		Src:      m.Src,
		Dst:      m.Dst,
		Topic:    m.Topic,
		Headers:  m.Headers,
		Payload:  m.Payload,
	}
	if !m.Deadline.IsZero() {
		env.Deadline = m.Deadline.UTC().Format(time.RFC3339Nano)
	}
	out, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("wire: json encode: %w", err)
	}
	return out, nil
}

// Decode implements Codec.
func (JSON) Decode(data []byte) (*Message, error) {
	var env jsonEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: json: %v", ErrInvalidMessage, err)
	}
	kind, ok := kindFromName(env.Kind)
	if !ok {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrInvalidMessage, env.Kind)
	}
	m := &Message{
		ID:       env.ID,
		Kind:     kind,
		Corr:     env.Corr,
		Priority: env.Priority,
		Src:      env.Src,
		Dst:      env.Dst,
		Topic:    env.Topic,
		Headers:  env.Headers,
		Payload:  env.Payload,
	}
	if env.Deadline != "" {
		t, err := time.Parse(time.RFC3339Nano, env.Deadline)
		if err != nil {
			return nil, fmt.Errorf("%w: deadline: %v", ErrInvalidMessage, err)
		}
		m.Deadline = t.UTC()
	}
	return m, nil
}

// CodecByContentType returns the codec registered for the given frame tag.
func CodecByContentType(ct byte) (Codec, error) {
	switch ct {
	case ContentBinary:
		return Binary{}, nil
	case ContentXML:
		return XML{}, nil
	case ContentJSON:
		return JSON{}, nil
	default:
		return nil, fmt.Errorf("wire: unknown content type %d", ct)
	}
}
