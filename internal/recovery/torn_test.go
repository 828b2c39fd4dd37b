package recovery

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildWAL writes n records with varied payload sizes and returns the raw
// file bytes plus the byte offset at which each frame ends.
func buildWAL(t *testing.T, n int) ([]byte, []int64) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := OpenWAL(path, WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for i := 0; i < n; i++ {
		payload := make([]byte, 1+(i*13)%57)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		if _, err := w.Append(Record{Type: RecordOp, OpKey: fmt.Sprintf("op-%d", i), Data: payload}); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, walSize(t, w))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != ends[n-1] {
		t.Fatalf("file is %d bytes, last frame ends at %d", len(data), ends[n-1])
	}
	return data, ends
}

// replayAll reopens the log at path and returns every replayed record.
func replayAll(t *testing.T, path string) (*WAL, []Record) {
	t.Helper()
	w, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatalf("reopen torn wal: %v", err)
	}
	var recs []Record
	if err := w.Replay(func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return w, recs
}

// TestWALTornWriteEveryCutOffset is the torn-write crash property: for EVERY
// possible truncation point of the log file — a crash can tear an in-flight
// frame at any byte — reopening must (a) not error, (b) replay exactly the
// longest prefix of whole frames before the cut, with LSNs intact, and
// (c) accept new appends that continue the LSN sequence from that prefix.
func TestWALTornWriteEveryCutOffset(t *testing.T) {
	const records = 8
	data, ends := buildWAL(t, records)

	// wholeBefore(cut) = how many complete frames fit before the cut.
	wholeBefore := func(cut int64) int {
		n := 0
		for _, end := range ends {
			if end <= cut {
				n++
			}
		}
		return n
	}

	for cut := int64(len(data)); cut >= 0; cut-- {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs := replayAll(t, path)
		want := wholeBefore(cut)
		if len(recs) != want {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, len(recs), want)
		}
		for i, rec := range recs {
			if rec.LSN != uint64(i+1) || rec.OpKey != fmt.Sprintf("op-%d", i) {
				t.Fatalf("cut at %d: record %d = {LSN %d, key %q}", cut, i, rec.LSN, rec.OpKey)
			}
		}
		// The log must keep working after crash recovery: the next append
		// continues the LSN sequence right after the surviving prefix.
		lsn, err := w.Append(Record{Type: RecordOp, OpKey: "post-crash", Data: []byte("x")})
		if err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if lsn != uint64(want+1) {
			t.Fatalf("cut at %d: post-crash LSN %d, want %d", cut, lsn, want+1)
		}
		_, recs2 := replayAllReusing(t, w, path)
		if len(recs2) != want+1 || recs2[len(recs2)-1].OpKey != "post-crash" {
			t.Fatalf("cut at %d: post-crash replay has %d records (last %q)",
				cut, len(recs2), recs2[len(recs2)-1].OpKey)
		}
		_ = w.Close()
	}
}

// replayAllReusing closes w and reopens the same file, replaying everything —
// a second crash-restart cycle over the same directory.
func replayAllReusing(t *testing.T, w *WAL, path string) (*WAL, []Record) {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return replayAll(t, path)
}

// TestWALBitFlipTruncatesToValidPrefix is the corruption property: flipping
// any single bit anywhere in the file must never break reopen, and the
// replayed records must be an exact prefix of the originals — a frame whose
// CRC no longer matches ends the log, it does not poison it.
func TestWALBitFlipTruncatesToValidPrefix(t *testing.T) {
	const records = 6
	data, _ := buildWAL(t, records)

	for pos := 0; pos < len(data); pos += 3 { // every 3rd byte keeps runtime low
		corrupted := append([]byte(nil), data...)
		corrupted[pos] ^= 0x40
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs := replayAll(t, path)
		if len(recs) > records {
			t.Fatalf("flip at %d: replayed %d records from a %d-record log", pos, len(recs), records)
		}
		for i, rec := range recs {
			if rec.LSN != uint64(i+1) || rec.OpKey != fmt.Sprintf("op-%d", i) {
				t.Fatalf("flip at %d: record %d = {LSN %d, key %q} is not the original prefix",
					pos, i, rec.LSN, rec.OpKey)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestManagerRecoverAfterTornTail runs the crash property through the full
// Manager path: ops are logged, the file is torn mid-frame, and recovery must
// rebuild exactly the surviving prefix into the state machine and keep
// accepting ops with correct LSNs.
func TestManagerRecoverAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	state := newKV()
	mgr, err := NewManager(dir, state, WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := mgr.Log(fmt.Sprintf("k%d", i), setOp(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final frame: chop 3 bytes off the file.
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	recovered := newKV()
	mgr2, err := NewManager(dir, recovered, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close() //nolint:errcheck
	if _, err := mgr2.Recover(); err != nil {
		t.Fatalf("recover over torn tail: %v", err)
	}
	for i := 0; i < 4; i++ {
		if got := recovered.m[fmt.Sprintf("k%d", i)]; got != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q after torn-tail recovery", i, got)
		}
	}
	if _, torn := recovered.m["k4"]; torn {
		t.Fatal("torn final record resurrected by recovery")
	}
	// The manager keeps logging: the WAL's LSN sequence continues right
	// after the surviving prefix (4 records survived, so the next is 5).
	if next := mgr2.wal.NextLSN(); next != 5 {
		t.Fatalf("post-recovery NextLSN %d, want 5", next)
	}
	if _, err := mgr2.Log("k5", setOp("k5", "v5")); err != nil {
		t.Fatal(err)
	}
	if got := recovered.m["k5"]; got != "v5" {
		t.Fatalf("k5 = %q after post-recovery log", got)
	}
}
