package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleMessage() *Message {
	return &Message{
		ID:       42,
		Kind:     KindRequest,
		Src:      "node-a",
		Dst:      "node-b",
		Topic:    "sensors/bp",
		Corr:     7,
		Priority: 3,
		Deadline: time.Date(2003, 6, 1, 12, 0, 0, 123456789, time.UTC),
		Headers:  map[string]string{"auth": "secret", "trace": "t-1"},
		Payload:  []byte("120/80 mmHg"),
	}
}

func allCodecs() []Codec { return []Codec{Binary{}, XML{}, JSON{}} }

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindRequest, "request"},
		{KindReply, "reply"},
		{KindData, "data"},
		{KindEvent, "event"},
		{KindAck, "ack"},
		{KindControl, "control"},
		{KindError, "error"},
		{KindShed, "shed"},
		{Kind(0), "invalid"},
		{Kind(200), "kind(200)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

func TestKindValid(t *testing.T) {
	if Kind(0).Valid() {
		t.Error("Kind(0) should be invalid")
	}
	if !KindError.Valid() {
		t.Error("KindError should be valid")
	}
	if !KindShed.Valid() {
		t.Error("KindShed should be valid")
	}
	if Kind(9).Valid() {
		t.Error("Kind(9) should be invalid")
	}
}

func TestValidate(t *testing.T) {
	var nilMsg *Message
	if err := nilMsg.Validate(); !errors.Is(err, ErrInvalidMessage) {
		t.Errorf("nil message: err = %v, want ErrInvalidMessage", err)
	}
	if err := (&Message{}).Validate(); !errors.Is(err, ErrInvalidMessage) {
		t.Errorf("zero kind: err = %v, want ErrInvalidMessage", err)
	}
	if err := sampleMessage().Validate(); err != nil {
		t.Errorf("valid message: err = %v", err)
	}
}

func TestClone(t *testing.T) {
	m := sampleMessage()
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Headers["auth"] = "changed"
	c.Payload[0] = 'X'
	if m.Headers["auth"] != "secret" {
		t.Error("clone shares headers map")
	}
	if m.Payload[0] != '1' {
		t.Error("clone shares payload")
	}
	var nilMsg *Message
	if nilMsg.Clone() != nil {
		t.Error("nil clone should be nil")
	}
}

func TestEqual(t *testing.T) {
	m := sampleMessage()
	if !m.Equal(m.Clone()) {
		t.Fatal("message should equal its clone")
	}
	cases := map[string]func(*Message){
		"id":       func(x *Message) { x.ID++ },
		"kind":     func(x *Message) { x.Kind = KindReply },
		"src":      func(x *Message) { x.Src = "other" },
		"dst":      func(x *Message) { x.Dst = "other" },
		"topic":    func(x *Message) { x.Topic = "other" },
		"corr":     func(x *Message) { x.Corr++ },
		"priority": func(x *Message) { x.Priority++ },
		"deadline": func(x *Message) { x.Deadline = x.Deadline.Add(time.Second) },
		"headers":  func(x *Message) { x.Headers["auth"] = "zzz" },
		"hdrcount": func(x *Message) { delete(x.Headers, "auth") },
		"payload":  func(x *Message) { x.Payload[0] ^= 0xFF },
		"paylen":   func(x *Message) { x.Payload = x.Payload[:1] },
	}
	for name, mutate := range cases {
		c := m.Clone()
		mutate(c)
		if m.Equal(c) {
			t.Errorf("mutation %q: messages still equal", name)
		}
	}
	var nilMsg *Message
	if nilMsg.Equal(m) || m.Equal(nilMsg) {
		t.Error("nil vs non-nil should be unequal")
	}
	if !nilMsg.Equal(nil) {
		t.Error("nil vs nil should be equal")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, codec := range allCodecs() {
		t.Run(codec.Name(), func(t *testing.T) {
			m := sampleMessage()
			data, err := codec.Encode(m)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, err := codec.Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !m.Equal(got) {
				t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", m, got)
			}
		})
	}
}

func TestCodecRoundTripMinimal(t *testing.T) {
	for _, codec := range allCodecs() {
		t.Run(codec.Name(), func(t *testing.T) {
			m := &Message{Kind: KindData}
			data, err := codec.Encode(m)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, err := codec.Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !m.Equal(got) {
				t.Fatalf("round trip mismatch: %+v vs %+v", m, got)
			}
		})
	}
}

func TestCodecRejectsInvalidKind(t *testing.T) {
	for _, codec := range allCodecs() {
		if _, err := codec.Encode(&Message{}); !errors.Is(err, ErrInvalidMessage) {
			t.Errorf("%s: encode of invalid kind: err = %v", codec.Name(), err)
		}
	}
}

func TestCodecDecodeGarbage(t *testing.T) {
	for _, codec := range allCodecs() {
		if _, err := codec.Decode([]byte("!!! not a message !!!")); err == nil {
			t.Errorf("%s: decode of garbage succeeded", codec.Name())
		}
	}
}

func TestBinaryDecodeTruncated(t *testing.T) {
	m := sampleMessage()
	data, err := Binary{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(data); cut += 3 {
		if _, err := (Binary{}).Decode(data[:cut]); err == nil {
			t.Errorf("decode of %d/%d bytes succeeded", cut, len(data))
		}
	}
}

func TestBinaryBadMagicAndVersion(t *testing.T) {
	data, _ := Binary{}.Encode(sampleMessage())
	bad := append([]byte(nil), data...)
	bad[0] = 0x00
	if _, err := (Binary{}).Decode(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), data...)
	bad[1] = 99
	if _, err := (Binary{}).Decode(bad); err == nil {
		t.Error("bad version accepted")
	}
}

func TestBinaryDeterministicHeaders(t *testing.T) {
	m := sampleMessage()
	a, _ := Binary{}.Encode(m)
	for i := 0; i < 10; i++ {
		b, _ := Binary{}.Encode(m)
		if !bytes.Equal(a, b) {
			t.Fatal("binary encoding not deterministic across runs")
		}
	}
}

// TestBinaryHeadersSortedOnWire pins the wire layout the tracing layer
// depends on: header keys are emitted in sorted order regardless of map
// insertion order, so two messages with equal headers (e.g. carrying the same
// trace-id/span-id pair) encode byte-identically.
func TestBinaryHeadersSortedOnWire(t *testing.T) {
	mk := func(insert []string) *Message {
		m := &Message{Kind: KindRequest, Src: "a", Dst: "b", Topic: "t"}
		m.Headers = make(map[string]string, len(insert))
		vals := map[string]string{
			"trace-id": "00000000deadbeef",
			"span-id":  "0000000000000042",
			"queue":    "q1",
			"ttl":      "2",
			// The admission-lane header the endpoint layer stamps (its key is
			// hardcoded here: wire cannot import endpoint). Lane-classified
			// traffic must stay byte-deterministic like traced traffic.
			"ndsm-lane": "control",
		}
		for _, k := range insert {
			m.Headers[k] = vals[k]
		}
		return m
	}
	keys := []string{"trace-id", "span-id", "queue", "ttl", "ndsm-lane"}
	base, err := Binary{}.Encode(mk(keys))
	if err != nil {
		t.Fatal(err)
	}
	// Every insertion order yields the same bytes.
	perms := [][]string{
		{"ttl", "queue", "span-id", "trace-id", "ndsm-lane"},
		{"span-id", "ndsm-lane", "trace-id", "ttl", "queue"},
		{"ndsm-lane", "queue", "ttl", "trace-id", "span-id"},
	}
	for _, p := range perms {
		enc, err := Binary{}.Encode(mk(p))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base, enc) {
			t.Fatalf("insertion order %v changed encoding", p)
		}
	}
	// The keys appear in the byte stream in sorted order.
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	pos := -1
	for _, k := range sorted {
		i := bytes.Index(base, []byte(k))
		if i < 0 {
			t.Fatalf("key %q not found in encoding", k)
		}
		if i <= pos {
			t.Fatalf("key %q at offset %d not after previous key (offset %d)", k, i, pos)
		}
		pos = i
	}
	// And the trace context survives the round trip intact.
	got, err := Binary{}.Decode(base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Headers["trace-id"] != "00000000deadbeef" || got.Headers["span-id"] != "0000000000000042" {
		t.Fatalf("trace headers lost in round trip: %v", got.Headers)
	}
}

func TestXMLIsMarkup(t *testing.T) {
	data, err := XML{}.Encode(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "<message") || !strings.Contains(s, "kind=\"request\"") {
		t.Fatalf("unexpected xml: %s", s)
	}
}

func TestJSONKindNames(t *testing.T) {
	data, err := JSON{}.Encode(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"request"`) {
		t.Fatalf("unexpected json: %s", data)
	}
}

func TestCodecLookup(t *testing.T) {
	for _, codec := range allCodecs() {
		byCT, err := CodecByContentType(codec.ContentType())
		if err != nil || byCT.Name() != codec.Name() {
			t.Errorf("CodecByContentType(%d) = %v, %v", codec.ContentType(), byCT, err)
		}
	}
	if _, err := CodecByContentType(99); err == nil {
		t.Error("unknown content type accepted")
	}
}

// genMessage builds a valid pseudo-random message from quick's fuzz values.
func genMessage(r *rand.Rand) *Message {
	m := &Message{
		ID:       r.Uint64(),
		Kind:     Kind(1 + r.Intn(7)),
		Corr:     r.Uint64(),
		Priority: uint8(r.Intn(256)),
	}
	randStr := func(maxLen int) string {
		n := r.Intn(maxLen)
		b := make([]rune, n)
		for i := range b {
			b[i] = rune('a' + r.Intn(26))
		}
		return string(b)
	}
	m.Src = randStr(12)
	m.Dst = randStr(12)
	m.Topic = randStr(20)
	if r.Intn(2) == 0 {
		m.Deadline = time.Unix(0, r.Int63()).UTC()
	}
	if n := r.Intn(4); n > 0 {
		m.Headers = make(map[string]string, n)
		for i := 0; i < n; i++ {
			m.Headers["k"+randStr(5)] = randStr(8)
		}
	}
	if n := r.Intn(64); n > 0 {
		m.Payload = make([]byte, n)
		r.Read(m.Payload) //nolint:errcheck
	}
	return m
}

// Property: every codec round-trips every valid message.
func TestCodecRoundTripProperty(t *testing.T) {
	for _, codec := range allCodecs() {
		codec := codec
		t.Run(codec.Name(), func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			f := func() bool {
				m := genMessage(r)
				data, err := codec.Encode(m)
				if err != nil {
					t.Logf("encode: %v", err)
					return false
				}
				got, err := codec.Decode(data)
				if err != nil {
					t.Logf("decode: %v", err)
					return false
				}
				return m.Equal(got)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: binary decode never panics on mutated input.
func TestBinaryDecodeFuzzProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		m := genMessage(r)
		data, err := Binary{}.Encode(m)
		if err != nil {
			return false
		}
		// Flip a few random bytes; decode must either fail or succeed, never panic.
		for i := 0; i < 4 && len(data) > 0; i++ {
			data[r.Intn(len(data))] ^= byte(1 << r.Intn(8))
		}
		_, _ = Binary{}.Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("frame body")
	if err := WriteFrame(&buf, ContentBinary, body); err != nil {
		t.Fatal(err)
	}
	ct, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ct != ContentBinary || !bytes.Equal(got, body) {
		t.Fatalf("got ct=%d body=%q", ct, got)
	}
}

func TestFrameEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, ContentJSON, nil); err != nil {
		t.Fatal(err)
	}
	ct, body, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ct != ContentJSON || len(body) != 0 {
		t.Fatalf("got ct=%d len=%d", ct, len(body))
	}
}

func TestFrameCRCDetection(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, ContentBinary, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[7] ^= 0xFF // corrupt a body byte
	if _, _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrFrameCRC) {
		t.Fatalf("err = %v, want ErrFrameCRC", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	big := make([]byte, 9)
	// Forge a header claiming a huge body.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, ContentBinary}
	if _, _, err := ReadFrame(bytes.NewReader(append(hdr, big...))); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if err := WriteFrame(io.Discard, ContentBinary, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameCleanEOF(t *testing.T) {
	if _, _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, ContentBinary, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut += 2 {
		_, _, err := ReadFrame(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("read of %d/%d bytes succeeded", cut, len(raw))
		}
		if errors.Is(err, io.EOF) && cut >= 5 {
			t.Fatalf("mid-frame truncation at %d reported clean EOF", cut)
		}
	}
}

func TestWriteReadMessage(t *testing.T) {
	for _, codec := range allCodecs() {
		t.Run(codec.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			m := sampleMessage()
			if err := WriteMessage(&buf, codec, m); err != nil {
				t.Fatal(err)
			}
			got, err := ReadMessage(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Equal(got) {
				t.Fatal("message round trip mismatch")
			}
		})
	}
}

func TestWriteMessageInvalid(t *testing.T) {
	if err := WriteMessage(io.Discard, Binary{}, &Message{}); err == nil {
		t.Fatal("invalid message written")
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []*Message{sampleMessage(), {Kind: KindAck, ID: 1}, {Kind: KindEvent, Topic: "t", ID: 2}}
	codecs := allCodecs()
	for i, m := range msgs {
		if err := WriteMessage(&buf, codecs[i%len(codecs)], m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !want.Equal(got) {
			t.Fatalf("message %d mismatch", i)
		}
	}
	if _, err := ReadMessage(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("after all messages: err = %v, want EOF", err)
	}
}

func TestEncodedSizeOrdering(t *testing.T) {
	// The paper-motivated expectation: binary < json < xml for a typical
	// message (E10's shape).
	m := sampleMessage()
	sizes := map[string]int{}
	for _, codec := range allCodecs() {
		data, err := codec.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		sizes[codec.Name()] = len(data)
	}
	if !(sizes["binary"] < sizes["json"] && sizes["json"] <= sizes["xml"]) {
		t.Fatalf("unexpected size ordering: %v", sizes)
	}
}

func reflectDeepEqualGuard(t *testing.T, a, b *Message) {
	t.Helper()
	if a.Equal(b) != reflect.DeepEqual(normalize(a), normalize(b)) {
		t.Fatalf("Equal disagrees with DeepEqual for %+v vs %+v", a, b)
	}
}

// normalize maps empty and nil collections together the way Equal treats them,
// and drops the pooled buffer a Clone with an empty payload may hold aside.
func normalize(m *Message) *Message {
	c := m.Clone()
	if len(c.Headers) == 0 {
		c.Headers = nil
	}
	if len(c.Payload) == 0 {
		c.Payload = nil
	}
	c.spare = nil
	c.Deadline = c.Deadline.UTC()
	return c
}

// Property: Equal agrees with reflect.DeepEqual modulo nil/empty collections.
func TestEqualMatchesDeepEqualProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a := genMessage(r)
		var b *Message
		if r.Intn(2) == 0 {
			b = a.Clone()
		} else {
			b = genMessage(r)
		}
		reflectDeepEqualGuard(t, a, b)
	}
}
