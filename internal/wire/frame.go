package wire

import (
	"encoding/binary"
	"errors"
	"io"
)

// Frame layout on stream transports:
//
//	[4 bytes big-endian body length] [1 byte content type] [body] [4 bytes CRC32 (IEEE) of type+body]
//
// The trailer is CRC-32/IEEE whichever way frameCRC computes it (the vector
// kernel or hash/crc32), so the format does not depend on the CPU.
//
// The CRC detects corruption introduced by the simulated lossy links and by
// real-network truncation; the content-type byte lets a single connection
// carry messages in any codec, which is what the interop gateway relies on.

// MaxFrameSize bounds a frame body to keep a malicious or corrupted length
// prefix from exhausting memory.
const MaxFrameSize = 16 << 20

// Framing errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds max size")
	ErrFrameCRC      = errors.New("wire: frame CRC mismatch")
)

// AppendMessageFrame encodes m with codec and appends the resulting frame to
// dst. With an AppendEncoder codec the message body is serialized directly
// into dst — no intermediate buffer — which is what keeps the batched
// connection send path allocation-free in steady state. On error dst is
// returned unchanged.
func AppendMessageFrame(dst []byte, codec Codec, m *Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, codec.ContentType())
	out, err := EncodeAppend(codec, dst, m)
	if err != nil {
		return dst[:start], err
	}
	n := len(out) - start - 5
	if n > MaxFrameSize {
		return out[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(out[start:start+4], uint32(n))
	return binary.BigEndian.AppendUint32(out, frameCRC(0, out[start+4:])), nil
}

// unexpectEOF converts a clean EOF seen mid-frame into ErrUnexpectedEOF so
// only a close on a frame boundary reads as a clean shutdown.
func unexpectEOF(err error) error {
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
