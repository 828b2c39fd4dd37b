package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The one-shot framing below is the reference the wire tests check the
// batched writer (AppendMessageFrame, BatchWriter) and the FrameReader
// against: the frame layout of frame.go, written and read one call at a time.

// WriteFrame writes one frame carrying body tagged with the codec content
// type.
func WriteFrame(w io.Writer, contentType byte, body []byte) error {
	if len(body) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	header := make([]byte, 5)
	binary.BigEndian.PutUint32(header[:4], uint32(len(body)))
	header[4] = contentType
	crc := crc32.NewIEEE()
	crc.Write(header[4:5]) //nolint:errcheck // hash writes cannot fail
	crc.Write(body)        //nolint:errcheck
	trailer := make([]byte, 4)
	binary.BigEndian.PutUint32(trailer, crc.Sum32())

	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("wire: write frame header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("wire: write frame body: %w", err)
	}
	if _, err := w.Write(trailer); err != nil {
		return fmt.Errorf("wire: write frame trailer: %w", err)
	}
	return nil
}

// AppendFrame appends one frame carrying body to dst and returns the
// extended slice — the allocation-free form of WriteFrame. On error dst is
// returned unchanged.
func AppendFrame(dst []byte, contentType byte, body []byte) ([]byte, error) {
	if len(body) > MaxFrameSize {
		return dst, ErrFrameTooLarge
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, contentType)
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(len(body)))
	dst = append(dst, body...)
	crc := crc32.Update(0, crc32.IEEETable, dst[start+4:])
	return binary.BigEndian.AppendUint32(dst, crc), nil
}

// ReadFrame reads one frame, verifying the CRC, and returns the content type
// and body.
func ReadFrame(r io.Reader) (contentType byte, body []byte, err error) {
	header := make([]byte, 5)
	if _, err := io.ReadFull(r, header); err != nil {
		// Propagate EOF unchanged so callers can detect a clean close.
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(header[:4])
	if n > MaxFrameSize {
		return 0, nil, ErrFrameTooLarge
	}
	contentType = header[4]
	body = make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("wire: read frame body: %w", unexpectEOF(err))
	}
	trailer := make([]byte, 4)
	if _, err := io.ReadFull(r, trailer); err != nil {
		return 0, nil, fmt.Errorf("wire: read frame trailer: %w", unexpectEOF(err))
	}
	crc := crc32.NewIEEE()
	crc.Write(header[4:5]) //nolint:errcheck
	crc.Write(body)        //nolint:errcheck
	if crc.Sum32() != binary.BigEndian.Uint32(trailer) {
		return 0, nil, ErrFrameCRC
	}
	return contentType, body, nil
}

// WriteMessage encodes m with codec and writes it as one frame.
func WriteMessage(w io.Writer, codec Codec, m *Message) error {
	body, err := codec.Encode(m)
	if err != nil {
		return err
	}
	return WriteFrame(w, codec.ContentType(), body)
}

// ReadMessage reads one frame and decodes it with the codec named by the
// frame's content-type tag.
func ReadMessage(r io.Reader) (*Message, error) {
	ct, body, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	codec, err := CodecByContentType(ct)
	if err != nil {
		return nil, err
	}
	return codec.Decode(body)
}
