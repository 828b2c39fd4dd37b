package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// frameReaderBuffer is the bufio read-ahead size for FrameReader. One read
// syscall typically pulls in a whole coalesced batch of frames, which the
// reader then slices apart without touching the kernel again.
const frameReaderBuffer = 64 << 10

// yieldBatchCap is the pending size past which a BatchWriter flush leader
// writes at once instead of yielding for more frames. Every frame a yield adds
// is one more message the peer decodes and holds at the same time. A 64 KiB
// cap was measured on 16 KiB replies: more capacity, but a doubled live heap,
// and the gain went when the collector ran less often (GOGC=400 on both
// sides), so what it bought was collector pacing, not fewer writes.
const yieldBatchCap = 4 << 10

// maxRetainedScratch bounds the scratch buffer a FrameReader (or BatchWriter)
// keeps across frames. One oversized message must not pin its worth of memory
// for the connection's lifetime.
const maxRetainedScratch = 1 << 20

// maxRememberedName bounds each envelope string a FrameReader keeps between
// messages: node addresses and topics are far shorter, and a peer must not be
// able to pin three MaxFrameSize strings for a connection's lifetime.
const maxRememberedName = 256

// maxRememberedTopics bounds how many topics a FrameReader keeps: with
// maxRememberedName, at most 8 KiB of strings a connection.
const maxRememberedTopics = 32

// FrameReader reads a stream of frames without allocating: a frame that fits
// the bufio buffer is checked and parsed where the read syscall put it, and
// only a larger one is assembled in a reused scratch buffer. It is the receive
// half of the batched hot path — the peer's write coalescing lands several
// frames per syscall, and the reader slices them apart in place.
//
// The body slice returned by Next aliases reader-owned memory (the bufio
// buffer, or scratch) and is valid only until the next Next or ReadMessage
// call. ReadMessage decodes before that memory is reused, and codecs never
// alias their input (see Codec), so decoded messages are safe to retain
// indefinitely — they are the caller's, who may instead Recycle one it is
// done with.
//
// FrameReader is not safe for concurrent use; a connection's single receive
// loop owns it. Frames alone may be called from any goroutine.
type FrameReader struct {
	br      *bufio.Reader
	held    int           // bytes of the last frame still undiscarded in br (its body was returned in place)
	scratch []byte        // body of the last frame larger than br's buffer
	header  [5]byte       // reused header buffer; a stack array would escape through io.ReadFull
	names   envelopeNames // the Src, Dst and Topics ReadMessage decoded last
	frames  atomic.Uint64 // frames read; the one field other goroutines may read (Frames)
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, frameReaderBuffer)
	}
	return &FrameReader{br: br, names: envelopeNames{topics: make(map[string]string)}}
}

// Next reads one frame, verifying the CRC, and returns the content type and
// body. The body aliases the reader's memory — the bufio buffer when the frame
// fits it, scratch otherwise — and is invalidated by the next call. A clean
// EOF on a frame boundary comes back as io.EOF; mid-frame truncation is
// io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (contentType byte, body []byte, err error) {
	if fr.held > 0 {
		// Cannot fail: Peek buffered exactly these bytes.
		_, _ = fr.br.Discard(fr.held)
		fr.held = 0
	}
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
	total := int(n) + 4 // body and CRC trailer
	var buf []byte
	if total <= fr.br.Size() {
		if buf, err = fr.br.Peek(total); err != nil {
			return 0, nil, fmt.Errorf("wire: read frame body: %w", unexpectEOF(err))
		}
		fr.held = total
	} else {
		if cap(fr.scratch) < total {
			fr.scratch = make([]byte, total)
		}
		buf = fr.scratch[:total]
		if _, err := io.ReadFull(fr.br, buf); err != nil {
			return 0, nil, fmt.Errorf("wire: read frame body: %w", unexpectEOF(err))
		}
		if cap(fr.scratch) > maxRetainedScratch {
			fr.scratch = nil // do not pin one huge frame's buffer forever
		}
	}
	body = buf[:n]
	if frameCRC(frameCRC(0, header[4:5]), body) != binary.BigEndian.Uint32(buf[n:]) {
		return 0, nil, ErrFrameCRC
	}
	fr.frames.Add(1)
	return contentType, body, nil
}

// Frames reports how many frames Next has returned. It is safe to call
// concurrently with the receive loop: the connection's BatchWriter compares
// it with the frames it has accepted to tell whether a reply is still owed.
func (fr *FrameReader) Frames() uint64 { return fr.frames.Load() }

// ReadMessage reads the next frame and decodes it with the codec named by its
// content-type tag. The returned message never aliases the reader's memory, so
// it survives any number of subsequent reads; it belongs to the caller, and a
// binary one is decoded into a message some owner has recycled when there is
// one (see Recycle).
//
// A binary envelope's Src, Dst and Topic are compared with the ones this
// reader decoded last and, when equal, share that string instead of copying
// it again: a connection carries the same three names on nearly every message.
// One value per field is kept until a different one of at most
// maxRememberedName bytes replaces it; a replaced Topic stays in a table of at
// most maxRememberedTopics, so a connection that cycles through a few topics
// copies each once.
func (fr *FrameReader) ReadMessage() (*Message, error) {
	ct, body, err := fr.Next()
	if err != nil {
		return nil, err
	}
	if ct == ContentBinary {
		return decodeBinary(body, &fr.names)
	}
	codec, err := CodecByContentType(ct)
	if err != nil {
		return nil, err
	}
	return codec.Decode(body)
}
