// Package recovery implements the paper's recovery-system feature (§3.8):
// "if middleware works with critical transactions, it must include a
// recovery system to deal with failures. Sometimes a simple log-based scheme
// can be used" — this is that log-based scheme, grown the rest of the way:
//
//   - WAL: an append-only, CRC-framed write-ahead log that survives torn
//     tails (a crash mid-append loses at most the unfinished record),
//   - Manager: checkpointing + replay that restores any StateMachine to its
//     pre-crash state, with operation-key de-duplication so retried client
//     operations apply at most once.
package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"ndsm/internal/obs"
)

// RecordType classifies WAL records.
type RecordType uint8

// Record types.
const (
	// RecordOp is an application operation to re-apply on replay.
	RecordOp RecordType = iota + 1
	// RecordCommit and RecordAbort bracket multi-op transactions.
	RecordCommit
	RecordAbort
)

// Record is one WAL entry.
type Record struct {
	// LSN is the log sequence number, assigned by Append.
	LSN uint64
	// Type classifies the record.
	Type RecordType
	// TxnID groups records of one transaction (0 for standalone ops).
	TxnID uint64
	// OpKey, when non-empty, identifies the operation for exactly-once
	// application across client retries.
	OpKey string
	// Data is the opaque operation body.
	Data []byte
}

// WAL errors.
var (
	ErrWALClosed = errors.New("recovery: wal closed")
	ErrCorrupt   = errors.New("recovery: corrupt record")
)

// WALOptions tunes durability vs throughput.
type WALOptions struct {
	// SyncEveryAppend fsyncs after each record — maximum durability, the
	// slow path of the E9 ablation. When false, callers decide when to call
	// Sync (group commit).
	SyncEveryAppend bool
	// Metrics receives the log's counters — "wal.appends",
	// "wal.append_bytes", "wal.syncs", "wal.replays" (nil: counted nowhere).
	Metrics *obs.Registry
}

// WAL is an append-only record log. Safe for concurrent use.
type WAL struct {
	opts WALOptions

	mu      sync.Mutex
	f       *os.File
	path    string
	nextLSN uint64
	closed  bool
}

// OpenWAL opens (creating if missing) the log at path and positions the next
// LSN after the last valid record. A torn final record is truncated away.
func OpenWAL(path string, opts WALOptions) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("recovery: open wal: %w", err)
	}
	w := &WAL{opts: opts, f: f, path: path, nextLSN: 1}
	validEnd, lastLSN, err := w.scan()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Truncate(validEnd); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("recovery: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("recovery: seek: %w", err)
	}
	w.nextLSN = lastLSN + 1
	return w, nil
}

// scan walks the log, returning the offset after the last valid record and
// that record's LSN.
func (w *WAL) scan() (int64, uint64, error) {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("recovery: seek: %w", err)
	}
	var offset int64
	var lastLSN uint64
	for {
		rec, n, err := readRecord(w.f)
		if err != nil {
			// Any error here is a torn or corrupt tail: keep what was valid.
			return offset, lastLSN, nil
		}
		offset += int64(n)
		lastLSN = rec.LSN
	}
}

// Append writes a record, assigns its LSN, and returns it.
func (w *WAL) Append(rec Record) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrWALClosed
	}
	rec.LSN = w.nextLSN
	body := encodeBody(rec)
	frame := make([]byte, 8, 8+len(body))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	frame = append(frame, body...)
	if _, err := w.f.Write(frame); err != nil {
		return 0, fmt.Errorf("recovery: append: %w", err)
	}
	w.opts.Metrics.Counter("wal.appends").Inc(1)
	w.opts.Metrics.Counter("wal.append_bytes").Inc(int64(len(frame)))
	if w.opts.SyncEveryAppend {
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("recovery: sync: %w", err)
		}
		w.opts.Metrics.Counter("wal.syncs").Inc(1)
	}
	w.nextLSN++
	return rec.LSN, nil
}

// Sync flushes buffered appends to stable storage (group commit).
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.opts.Metrics.Counter("wal.syncs").Inc(1)
	return nil
}

// Replay calls fn for every valid record in LSN order. It stops silently at
// a torn tail, and with fn's error if fn fails.
func (w *WAL) Replay(fn func(Record) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	w.opts.Metrics.Counter("wal.replays").Inc(1)
	pos, err := w.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("recovery: seek: %w", err)
	}
	defer w.f.Seek(pos, io.SeekStart) //nolint:errcheck // restore append position
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("recovery: seek: %w", err)
	}
	for {
		rec, _, err := readRecord(w.f)
		if err != nil {
			return nil // torn/ended
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Reset truncates the log to empty (after a successful checkpoint).
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("recovery: reset: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("recovery: seek: %w", err)
	}
	return w.f.Sync()
}

// NextLSN returns the LSN the next append will receive.
func (w *WAL) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close()
		return fmt.Errorf("recovery: close sync: %w", err)
	}
	return w.f.Close()
}

func encodeBody(rec Record) []byte {
	body := binary.AppendUvarint(nil, rec.LSN)
	body = append(body, byte(rec.Type))
	body = binary.AppendUvarint(body, rec.TxnID)
	body = binary.AppendUvarint(body, uint64(len(rec.OpKey)))
	body = append(body, rec.OpKey...)
	body = append(body, rec.Data...)
	return body
}

// readRecord reads one frame. n is the total bytes consumed.
func readRecord(r io.Reader) (Record, int, error) {
	header := make([]byte, 8)
	if _, err := io.ReadFull(r, header); err != nil {
		return Record{}, 0, err
	}
	length := binary.BigEndian.Uint32(header[:4])
	if length > 64<<20 {
		return Record{}, 0, ErrCorrupt
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return Record{}, 0, err
	}
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(header[4:8]) {
		return Record{}, 0, ErrCorrupt
	}
	rec, err := decodeBody(body)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, 8 + int(length), nil
}

func decodeBody(body []byte) (Record, error) {
	var rec Record
	lsn, n := binary.Uvarint(body)
	if n <= 0 {
		return rec, ErrCorrupt
	}
	body = body[n:]
	if len(body) < 1 {
		return rec, ErrCorrupt
	}
	rec.LSN = lsn
	rec.Type = RecordType(body[0])
	body = body[1:]
	txn, n := binary.Uvarint(body)
	if n <= 0 {
		return rec, ErrCorrupt
	}
	body = body[n:]
	rec.TxnID = txn
	keyLen, n := binary.Uvarint(body)
	if n <= 0 || keyLen > uint64(len(body)-n) {
		return rec, ErrCorrupt
	}
	body = body[n:]
	rec.OpKey = string(body[:keyLen])
	body = body[keyLen:]
	if len(body) > 0 {
		rec.Data = append([]byte(nil), body...)
	}
	return rec, nil
}

// walPath and checkpointPath name the files inside a recovery directory.
func walPath(dir string) string        { return filepath.Join(dir, "wal.log") }
func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint") }
