package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// StateMachine is the recoverable application state: the middleware replays
// logged operations into it after a crash.
type StateMachine interface {
	// Apply executes one logged operation.
	Apply(data []byte) error
	// Snapshot serializes the full state for a checkpoint.
	Snapshot() ([]byte, error)
	// Restore replaces the state from a checkpoint snapshot.
	Restore(snapshot []byte) error
}

// Manager combines a WAL and checkpoints to make a StateMachine durable.
//
// Protocol: Log each operation before applying it; call Checkpoint
// periodically to bound replay time; after a crash, construct a new Manager
// over the same directory and call Recover.
type Manager struct {
	dir string
	sm  StateMachine
	wal *WAL

	mu   sync.Mutex
	seen map[string]bool // OpKeys already applied (exactly-once)
}

// NewManager opens (or creates) the recovery state in dir.
func NewManager(dir string, sm StateMachine, opts WALOptions) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: mkdir: %w", err)
	}
	wal, err := OpenWAL(walPath(dir), opts)
	if err != nil {
		return nil, err
	}
	return &Manager{dir: dir, sm: sm, wal: wal, seen: make(map[string]bool)}, nil
}

// Close releases the WAL.
func (m *Manager) Close() error { return m.wal.Close() }

// Log durably records an operation and applies it. opKey de-duplicates
// client retries: an operation whose key was already applied is skipped
// (and reports applied=false).
func (m *Manager) Log(opKey string, data []byte) (applied bool, err error) {
	m.mu.Lock()
	if opKey != "" && m.seen[opKey] {
		m.mu.Unlock()
		return false, nil
	}
	m.mu.Unlock()

	if _, err := m.wal.Append(Record{Type: RecordOp, OpKey: opKey, Data: data}); err != nil {
		return false, err
	}
	if err := m.sm.Apply(data); err != nil {
		return false, fmt.Errorf("recovery: apply: %w", err)
	}
	if opKey != "" {
		m.mu.Lock()
		m.seen[opKey] = true
		m.mu.Unlock()
	}
	return true, nil
}

// Sync flushes the WAL (group commit).
func (m *Manager) Sync() error { return m.wal.Sync() }

// Recover restores the state machine: checkpoint first, then WAL replay.
// It returns how many operations were re-applied.
func (m *Manager) Recover() (int, error) {
	if snap, ok, err := loadCheckpoint(checkpointPath(m.dir)); err != nil {
		return 0, err
	} else if ok {
		if err := m.sm.Restore(snap); err != nil {
			return 0, fmt.Errorf("recovery: restore checkpoint: %w", err)
		}
	}
	applied := 0
	m.mu.Lock()
	m.seen = make(map[string]bool)
	m.mu.Unlock()
	err := m.wal.Replay(func(rec Record) error {
		if rec.Type != RecordOp {
			return nil
		}
		m.mu.Lock()
		if rec.OpKey != "" {
			if m.seen[rec.OpKey] {
				m.mu.Unlock()
				return nil
			}
			m.seen[rec.OpKey] = true
		}
		m.mu.Unlock()
		if err := m.sm.Apply(rec.Data); err != nil {
			return fmt.Errorf("recovery: replay apply: %w", err)
		}
		applied++
		return nil
	})
	return applied, err
}

// Checkpoint snapshots the state machine, persists it atomically, and
// truncates the WAL. After a checkpoint, recovery starts from the snapshot.
func (m *Manager) Checkpoint() error {
	snap, err := m.sm.Snapshot()
	if err != nil {
		return fmt.Errorf("recovery: snapshot: %w", err)
	}
	if err := saveCheckpoint(checkpointPath(m.dir), snap); err != nil {
		return err
	}
	return m.wal.Reset()
}

// Checkpoint file format: [4B body length][4B CRC][body].

func saveCheckpoint(path string, snap []byte) error {
	tmp := path + ".tmp"
	frame := make([]byte, 8, 8+len(snap))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(snap)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(snap))
	frame = append(frame, snap...)
	if err := os.WriteFile(tmp, frame, 0o644); err != nil {
		return fmt.Errorf("recovery: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("recovery: install checkpoint: %w", err)
	}
	return nil
}

func loadCheckpoint(path string) ([]byte, bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("recovery: read checkpoint: %w", err)
	}
	if len(data) < 8 {
		return nil, false, fmt.Errorf("%w: checkpoint too short", ErrCorrupt)
	}
	length := binary.BigEndian.Uint32(data[:4])
	if uint64(length) != uint64(len(data)-8) {
		return nil, false, fmt.Errorf("%w: checkpoint length mismatch", ErrCorrupt)
	}
	body := data[8:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[4:8]) {
		return nil, false, fmt.Errorf("%w: checkpoint CRC", ErrCorrupt)
	}
	return body, true, nil
}
