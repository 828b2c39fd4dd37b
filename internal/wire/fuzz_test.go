package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// fuzzCodecs are the three codecs FuzzWireDecode exercises. Binary is
// byte-faithful; JSON and XML may normalise strings (escape replacement,
// header ordering), so their round-trip guarantee is stability of the
// re-encoded form rather than byte equality with the fuzz input.
var fuzzCodecs = []Codec{Binary{}, JSON{}, XML{}}

func fuzzSeedMessage() *Message {
	return &Message{
		ID:       42,
		Kind:     KindRequest,
		Src:      "node-a",
		Dst:      "node-b",
		Topic:    "sensor/bp",
		Corr:     7,
		Priority: 3,
		Deadline: time.Date(2003, 6, 1, 12, 0, 0, 500, time.UTC),
		Headers:  map[string]string{"content-type": "binary", "ttl": "2"},
		Payload:  []byte{0x00, 0x01, 0xFE, 0xFF},
	}
}

// fuzzTracedMessage seeds the corpus with a message carrying trace-context
// headers in the on-wire form the endpoint layer injects, so the fuzzer
// explores mutations of trace-id/span-id values from the start.
func fuzzTracedMessage() *Message {
	m := fuzzSeedMessage()
	m.Headers["trace-id"] = "00000000deadbeef"
	m.Headers["span-id"] = "0000000000000042"
	return m
}

// fuzzLaneMessage seeds the corpus with a shed reply in its on-wire form: the
// endpoint layer answers a request it will not admit with a KindShed message
// whose Priority names the lane it was charged to, so the fuzzer explores
// kind and lane mutations — known, unknown, unstamped — from the start.
func fuzzLaneMessage() *Message {
	m := fuzzSeedMessage()
	m.Kind = KindShed
	m.Priority = 1
	m.Deadline = time.Date(2003, 6, 1, 12, 0, 0, 25_000_000, time.UTC)
	return m
}

// FuzzWireDecode feeds arbitrary bytes to every codec's Decode. A decode may
// reject the input with an error, but it must never panic; and anything it
// accepts must re-encode cleanly into a stable form: Encode succeeds,
// Decode(Encode(m)) succeeds and is semantically equal, and a second
// encode of that result is byte-identical to the first (the encoding is a
// fixed point after one normalisation pass).
func FuzzWireDecode(f *testing.F) {
	for _, seed := range []*Message{fuzzSeedMessage(), fuzzTracedMessage(), fuzzLaneMessage()} {
		for _, c := range fuzzCodecs {
			enc, err := c.Encode(seed)
			if err != nil {
				f.Fatalf("%s: seed encode: %v", c.Name(), err)
			}
			f.Add(enc)
			// Truncated and corrupted variants of a valid encoding probe the
			// error paths that plain garbage rarely reaches.
			f.Add(enc[:len(enc)/2])
			if len(enc) > 4 {
				bad := append([]byte(nil), enc...)
				bad[3] ^= 0xFF
				f.Add(bad)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xD5})                                                       // binary magic, nothing else
	f.Add([]byte(`{"kind":"request"}`))                                       // minimal JSON
	f.Add([]byte(`<message></message>`))                                      // minimal XML
	f.Add([]byte(`{"kind":"nope"}`))                                          // unknown kind
	f.Add([]byte("\xD5\x01\x01\x00\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x01")) // huge uvarint

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range fuzzCodecs {
			m, err := c.Decode(data)
			if err != nil {
				if m != nil {
					t.Fatalf("%s: Decode returned both a message and error %v", c.Name(), err)
				}
				continue
			}
			if m == nil {
				t.Fatalf("%s: Decode returned nil message with nil error", c.Name())
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("%s: Decode accepted invalid message: %v", c.Name(), err)
			}
			enc, err := c.Encode(m)
			if err != nil {
				t.Fatalf("%s: decoded message failed to re-encode: %v", c.Name(), err)
			}
			m2, err := c.Decode(enc)
			if err != nil {
				t.Fatalf("%s: re-encoded message failed to decode: %v\nencoding: %q", c.Name(), err, enc)
			}
			enc2, err := c.Encode(m2)
			if err != nil {
				t.Fatalf("%s: second re-encode failed: %v", c.Name(), err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("%s: encoding is not a fixed point:\n first: %q\nsecond: %q", c.Name(), enc, enc2)
			}
			// Binary is byte-faithful, so semantic equality must hold too.
			if _, isBinary := c.(Binary); isBinary && !m.Equal(m2) {
				t.Fatalf("binary: round-trip changed message:\n was: %+v\n got: %+v", m, m2)
			}
		}
	})
}

// frameStreamSeed builds a coalesced batch of count frames, as the batched
// write path would put them on the wire.
func frameStreamSeed(f *testing.F, count int) []byte {
	f.Helper()
	var stream []byte
	for i := 0; i < count; i++ {
		m := fuzzSeedMessage()
		m.ID = uint64(i + 1)
		codec := fuzzCodecs[i%len(fuzzCodecs)]
		var err error
		stream, err = AppendMessageFrame(stream, codec, m)
		if err != nil {
			f.Fatalf("%s: seed frame: %v", codec.Name(), err)
		}
	}
	return stream
}

// FuzzFrameStream feeds arbitrary bytes to the batched-path FrameReader as a
// coalesced frame stream. The reader must never panic, must agree frame-for-
// frame (and error-class-for-error-class) with the classic one-frame-per-call
// ReadFrame, and every batch of frames it accepts must re-serialize via
// AppendFrame into a stream that reads back identically.
func FuzzFrameStream(f *testing.F) {
	// Seeds: single frames, merged multi-frame batches, split/truncated
	// boundaries, and CRC corruption inside a batch.
	single := frameStreamSeed(f, 1)
	batch := frameStreamSeed(f, 5)
	f.Add(single)
	f.Add(batch)
	f.Add(batch[:len(batch)-3])              // truncated mid-trailer
	f.Add(batch[:len(single)+2])             // truncated mid-header of frame 2
	f.Add(append(batch[:0:0], batch[5:]...)) // batch missing the first header
	corrupt := append(batch[:0:0], batch...)
	corrupt[len(single)+7] ^= 0xFF // flips a byte inside the second frame
	f.Add(corrupt)
	huge := append(batch[:0:0], batch...)
	huge[0] = 0xFF // length prefix beyond MaxFrameSize
	f.Add(huge)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		classic := bytes.NewReader(data)
		var reser []byte
		var types []byte
		var bodies [][]byte
		for {
			ct, body, err := fr.Next()
			cct, cbody, cerr := ReadFrame(classic)
			if (err == nil) != (cerr == nil) {
				t.Fatalf("batched and classic readers disagree: %v vs %v", err, cerr)
			}
			if err != nil {
				// The error class must match: clean EOF, torn frame, CRC, size.
				for _, sentinel := range []error{io.EOF, io.ErrUnexpectedEOF, ErrFrameCRC, ErrFrameTooLarge} {
					if errors.Is(err, sentinel) != errors.Is(cerr, sentinel) {
						t.Fatalf("error class mismatch on %v: batched %v, classic %v", sentinel, err, cerr)
					}
				}
				break
			}
			if ct != cct || !bytes.Equal(body, cbody) {
				t.Fatalf("frame mismatch: batched (%d, %x) vs classic (%d, %x)", ct, body, cct, cbody)
			}
			types = append(types, ct)
			bodies = append(bodies, append([]byte(nil), body...))
			reser, err = AppendFrame(reser, ct, body)
			if err != nil {
				t.Fatalf("accepted frame failed to re-serialize: %v", err)
			}
		}
		// Round trip: the re-serialized batch must read back frame-identical.
		fr2 := NewFrameReader(bytes.NewReader(reser))
		for i := range bodies {
			ct, body, err := fr2.Next()
			if err != nil {
				t.Fatalf("re-read frame %d/%d: %v", i, len(bodies), err)
			}
			if ct != types[i] || !bytes.Equal(body, bodies[i]) {
				t.Fatalf("re-read frame %d changed: (%d, %x) vs (%d, %x)", i, ct, body, types[i], bodies[i])
			}
		}
		if _, _, err := fr2.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("re-read trailing = %v, want EOF", err)
		}
	})
}
