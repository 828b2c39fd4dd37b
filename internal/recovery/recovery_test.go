package recovery

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

// kvState is a simple recoverable state machine: "set k v" operations.
type kvState struct {
	m map[string]string
}

func newKV() *kvState { return &kvState{m: make(map[string]string)} }

func (s *kvState) Apply(data []byte) error {
	var op [2]string
	if err := json.Unmarshal(data, &op); err != nil {
		return err
	}
	s.m[op[0]] = op[1]
	return nil
}

func (s *kvState) Snapshot() ([]byte, error) { return json.Marshal(s.m) }

func (s *kvState) Restore(snap []byte) error {
	s.m = make(map[string]string)
	return json.Unmarshal(snap, &s.m)
}

func setOp(k, v string) []byte {
	data, err := json.Marshal([2]string{k, v})
	if err != nil {
		panic(err)
	}
	return data
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(walPath(dir), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 1; i <= 3; i++ {
		lsn, err := w.Append(Record{Type: RecordOp, TxnID: uint64(i), OpKey: fmt.Sprintf("op%d", i), Data: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	var got []Record
	if err := w.Replay(func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].LSN != 1 || got[2].OpKey != "op3" || got[1].Data[0] != 2 {
		t.Fatalf("replay = %+v", got)
	}
}

func TestWALPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(walPath(dir), WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Record{Type: RecordOp, Data: []byte("persist")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(walPath(dir), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.NextLSN() != 2 {
		t.Fatalf("NextLSN = %d, want 2", w2.NextLSN())
	}
	count := 0
	_ = w2.Replay(func(r Record) error {
		count++
		if string(r.Data) != "persist" {
			t.Fatalf("data = %q", r.Data)
		}
		return nil
	})
	if count != 1 {
		t.Fatalf("replayed %d", count)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(walPath(dir), WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(Record{Type: RecordOp, Data: []byte("full-record")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop bytes off the tail.
	raw, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir), raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(walPath(dir), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	count := 0
	_ = w2.Replay(func(Record) error { count++; return nil })
	if count != 2 {
		t.Fatalf("survived records = %d, want 2", count)
	}
	if w2.NextLSN() != 3 {
		t.Fatalf("NextLSN = %d, want 3", w2.NextLSN())
	}
	// New appends after the torn tail work.
	if _, err := w2.Append(Record{Type: RecordOp, Data: []byte("after-crash")}); err != nil {
		t.Fatal(err)
	}
	count = 0
	_ = w2.Replay(func(Record) error { count++; return nil })
	if count != 3 {
		t.Fatalf("after append: %d", count)
	}
}

func TestWALCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(walPath(dir), WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(Record{Type: RecordOp, Data: []byte("record-data")}); err != nil {
			t.Fatal(err)
		}
	}
	_ = w.Close()
	raw, _ := os.ReadFile(walPath(dir))
	raw[12] ^= 0xFF // corrupt first record's body
	if err := os.WriteFile(walPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(walPath(dir), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	count := 0
	_ = w2.Replay(func(Record) error { count++; return nil })
	if count != 0 {
		t.Fatalf("replayed %d records from corrupt log", count)
	}
}

func TestWALReset(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(walPath(dir), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	_, _ = w.Append(Record{Type: RecordOp})
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if size := walSize(t, w); size != 0 {
		t.Fatalf("size = %d", size)
	}
	count := 0
	_ = w.Replay(func(Record) error { count++; return nil })
	if count != 0 {
		t.Fatal("records survived reset")
	}
}

func TestWALClosed(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(walPath(dir), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Close()
	_ = w.Close() // idempotent
	if _, err := w.Append(Record{Type: RecordOp}); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := w.Replay(func(Record) error { return nil }); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestWALReplayCallbackError(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(walPath(dir), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	_, _ = w.Append(Record{Type: RecordOp})
	wantErr := errors.New("callback failed")
	if err := w.Replay(func(Record) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
}

func TestManagerLogAndRecover(t *testing.T) {
	dir := t.TempDir()
	sm := newKV()
	m, err := NewManager(dir, sm, WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := m.Log("op1", setOp("color", "red")); err != nil || !ok {
		t.Fatalf("log: %v %v", ok, err)
	}
	if ok, err := m.Log("op2", setOp("size", "xl")); err != nil || !ok {
		t.Fatalf("log: %v %v", ok, err)
	}
	if sm.m["color"] != "red" {
		t.Fatal("apply didn't run")
	}
	_ = m.Close()

	// Crash: fresh state machine, fresh manager, same directory.
	sm2 := newKV()
	m2, err := NewManager(dir, sm2, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	applied, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	if sm2.m["color"] != "red" || sm2.m["size"] != "xl" {
		t.Fatalf("state = %v", sm2.m)
	}
}

func TestManagerOpKeyDedup(t *testing.T) {
	dir := t.TempDir()
	sm := newKV()
	m, err := NewManager(dir, sm, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if ok, _ := m.Log("retry-1", setOp("k", "v1")); !ok {
		t.Fatal("first apply rejected")
	}
	if ok, _ := m.Log("retry-1", setOp("k", "v2")); ok {
		t.Fatal("duplicate op applied")
	}
	if sm.m["k"] != "v1" {
		t.Fatalf("k = %q", sm.m["k"])
	}
	// Empty keys never dedup.
	if ok, _ := m.Log("", setOp("a", "1")); !ok {
		t.Fatal("empty-key op rejected")
	}
	if ok, _ := m.Log("", setOp("a", "2")); !ok {
		t.Fatal("second empty-key op rejected")
	}
}

func TestManagerCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	sm := newKV()
	m, err := NewManager(dir, sm, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = m.Log("1", setOp("a", "1"))
	_, _ = m.Log("2", setOp("b", "2"))
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if size := walSize(t, m.wal); size != 0 {
		t.Fatalf("wal size after checkpoint = %d", size)
	}
	_, _ = m.Log("3", setOp("c", "3"))
	_ = m.Close()

	sm2 := newKV()
	m2, err := NewManager(dir, sm2, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	applied, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 { // only the post-checkpoint op replays
		t.Fatalf("applied = %d, want 1", applied)
	}
	if sm2.m["a"] != "1" || sm2.m["b"] != "2" || sm2.m["c"] != "3" {
		t.Fatalf("state = %v", sm2.m)
	}
}

func TestManagerRecoverDedupsAcrossReplay(t *testing.T) {
	dir := t.TempDir()
	sm := newKV()
	m, err := NewManager(dir, sm, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Force two records with the same OpKey into the log (as a retried
	// client would after a crash between append and ack).
	_, _ = m.wal.Append(Record{Type: RecordOp, OpKey: "dup", Data: setOp("k", "first")})
	_, _ = m.wal.Append(Record{Type: RecordOp, OpKey: "dup", Data: setOp("k", "second")})
	applied, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("applied = %d, want 1", applied)
	}
	if sm.m["k"] != "first" {
		t.Fatalf("k = %q, want first application to win", sm.m["k"])
	}
	_ = m.Close()
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	sm := newKV()
	m, err := NewManager(dir, sm, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = m.Log("1", setOp("a", "1"))
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_ = m.Close()
	raw, _ := os.ReadFile(checkpointPath(dir))
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(checkpointPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sm2 := newKV()
	m2, err := NewManager(dir, sm2, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.Recover(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestRecoverWithoutAnyState(t *testing.T) {
	dir := t.TempDir()
	sm := newKV()
	m, err := NewManager(dir, sm, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	applied, err := m.Recover()
	if err != nil || applied != 0 {
		t.Fatalf("recover empty = %d, %v", applied, err)
	}
}

// Property: for any random op sequence with random crash-truncation of the
// log tail, recovery reproduces exactly the prefix of operations whose
// records survived intact.
func TestCrashRecoveryPrefixProperty(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	f := func() bool {
		dir, err := os.MkdirTemp("", "walprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)

		sm := newKV()
		m, err := NewManager(dir, sm, WALOptions{SyncEveryAppend: true})
		if err != nil {
			return false
		}
		nOps := 1 + r.Intn(10)
		for i := 0; i < nOps; i++ {
			if _, err := m.Log(fmt.Sprintf("op%d", i), setOp(fmt.Sprintf("k%d", i%3), fmt.Sprintf("v%d", i))); err != nil {
				return false
			}
		}
		_ = m.Close()

		// Crash: truncate the log at a random byte offset.
		path := filepath.Join(dir, "wal.log")
		raw, err := os.ReadFile(path)
		if err != nil {
			return false
		}
		cut := r.Intn(len(raw) + 1)
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			return false
		}

		// Recover and independently replay the surviving prefix.
		sm2 := newKV()
		m2, err := NewManager(dir, sm2, WALOptions{})
		if err != nil {
			return false
		}
		defer m2.Close()
		if _, err := m2.Recover(); err != nil {
			return false
		}
		expected := newKV()
		_ = m2.wal.Replay(func(rec Record) error {
			return expected.Apply(rec.Data)
		})
		return reflect.DeepEqual(sm2.m, expected.m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// applyFailState fails Apply on demand, to exercise error propagation.
type applyFailState struct {
	kvState
	failApply bool
}

func (s *applyFailState) Apply(data []byte) error {
	if s.failApply {
		return errors.New("apply rejected")
	}
	return s.kvState.Apply(data)
}

func TestManagerLogApplyError(t *testing.T) {
	dir := t.TempDir()
	sm := &applyFailState{kvState: *newKV(), failApply: true}
	m, err := NewManager(dir, sm, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Log("op1", setOp("k", "v")); err == nil {
		t.Fatal("apply error swallowed")
	}
}

func TestManagerRecoverApplyError(t *testing.T) {
	dir := t.TempDir()
	good := newKV()
	m, err := NewManager(dir, good, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Log("op1", setOp("k", "v")); err != nil {
		t.Fatal(err)
	}
	_ = m.Close()

	bad := &applyFailState{failApply: true}
	m2, err := NewManager(dir, bad, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.Recover(); err == nil {
		t.Fatal("replay apply error swallowed")
	}
}

func TestOpenWALOnDirectoryFails(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenWAL(dir, WALOptions{}); err == nil {
		t.Fatal("opening a directory as WAL succeeded")
	}
}

func TestNewManagerBadDir(t *testing.T) {
	// A file where the directory should be.
	dir := t.TempDir()
	path := dir + "/occupied"
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(path, newKV(), WALOptions{}); err == nil {
		t.Fatal("manager created under a file path")
	}
}

func TestCheckpointShortFile(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, newKV(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := os.WriteFile(checkpointPath(dir), []byte("xy"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckpointLengthMismatch(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, newKV(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = m.Log("1", setOp("a", "1"))
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_ = m.Close()
	raw, _ := os.ReadFile(checkpointPath(dir))
	if err := os.WriteFile(checkpointPath(dir), append(raw, 'x'), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(dir, newKV(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.Recover(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

func TestWALSizeAndNextLSN(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(walPath(dir), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.NextLSN() != 1 {
		t.Fatalf("fresh NextLSN = %d", w.NextLSN())
	}
	size0 := walSize(t, w)
	if size0 != 0 {
		t.Fatalf("fresh size = %d", size0)
	}
	_, _ = w.Append(Record{Type: RecordOp, Data: []byte("x")})
	if walSize(t, w) <= size0 {
		t.Fatal("size did not grow")
	}
}

func TestManagerSyncPassthrough(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, newKV(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
}

// walSize is the log's length on disk.
func walSize(t *testing.T, w *WAL) int64 {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	st, err := w.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
