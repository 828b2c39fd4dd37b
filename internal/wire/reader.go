package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"
)

// frameReaderBuffer is the bufio read-ahead size for FrameReader. One read
// syscall typically pulls in a whole coalesced batch of frames, which the
// reader then slices apart without touching the kernel again.
const frameReaderBuffer = 64 << 10

// yieldBatchCap is the pending size past which a BatchWriter flush leader
// writes at once instead of yielding for more frames: the write's fixed cost
// is already amortized over that many bytes, and every frame a yield adds is
// one more message the peer decodes and holds at the same time.
const yieldBatchCap = 4 << 10

// maxRetainedScratch bounds the scratch buffer a FrameReader (or BatchWriter)
// keeps across frames. One oversized message must not pin its worth of memory
// for the connection's lifetime.
const maxRetainedScratch = 1 << 20

// FrameReader reads a stream of frames with a single reused scratch buffer:
// after warm-up, a frame read performs no allocations. It is the receive half
// of the batched hot path — the peer's write coalescing lands several frames
// per syscall, and the reader's buffering slices them apart cheaply.
//
// The body slice returned by Next aliases the scratch buffer and is valid
// only until the next Next or ReadMessage call. ReadMessage decodes before
// the scratch is reused, and codecs never alias their input (see Codec), so
// decoded messages are safe to retain indefinitely.
//
// FrameReader is not safe for concurrent use; a connection's single receive
// loop owns it. Frames alone may be called from any goroutine.
type FrameReader struct {
	br      *bufio.Reader
	scratch []byte
	header  [5]byte       // reused header buffer; a stack array would escape through io.ReadFull
	frames  atomic.Uint64 // frames read; the one field other goroutines may read (Frames)
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, frameReaderBuffer)
	}
	return &FrameReader{br: br}
}

// Next reads one frame, verifying the CRC, and returns the content type and
// body. The body aliases the reader's scratch buffer: it is invalidated by
// the next call. A clean EOF on a frame boundary comes back as io.EOF;
// mid-frame truncation is io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (contentType byte, body []byte, err error) {
	header := fr.header[:]
	if _, err := io.ReadFull(fr.br, header); err != nil {
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: read frame header: %w", unexpectEOF(err))
	}
	n := binary.BigEndian.Uint32(header[:4])
	if n > MaxFrameSize {
		return 0, nil, ErrFrameTooLarge
	}
	contentType = header[4]
	// Body and trailer arrive in one ReadFull into the reused scratch.
	total := int(n) + 4
	if cap(fr.scratch) < total {
		fr.scratch = make([]byte, total)
	}
	buf := fr.scratch[:total]
	if _, err := io.ReadFull(fr.br, buf); err != nil {
		return 0, nil, fmt.Errorf("wire: read frame body: %w", unexpectEOF(err))
	}
	body = buf[:n]
	crc := crc32.Update(crc32.Update(0, crc32.IEEETable, header[4:5]), crc32.IEEETable, body)
	if crc != binary.BigEndian.Uint32(buf[n:]) {
		return 0, nil, ErrFrameCRC
	}
	if cap(fr.scratch) > maxRetainedScratch {
		fr.scratch = nil // do not pin one huge frame's buffer forever
	}
	fr.frames.Add(1)
	return contentType, body, nil
}

// Frames reports how many frames Next has returned. It is safe to call
// concurrently with the receive loop: the connection's BatchWriter compares
// it with the frames it has accepted to tell whether a reply is still owed.
func (fr *FrameReader) Frames() uint64 { return fr.frames.Load() }

// ReadMessage reads the next frame and decodes it with the codec named by its
// content-type tag. The returned message owns all its memory (codecs copy out
// of the scratch buffer), so it survives any number of subsequent reads.
func (fr *FrameReader) ReadMessage() (*Message, error) {
	ct, body, err := fr.Next()
	if err != nil {
		return nil, err
	}
	codec, err := CodecByContentType(ct)
	if err != nil {
		return nil, err
	}
	return codec.Decode(body)
}
