package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ndsm/internal/recovery"
	"ndsm/internal/stats"
)

// counterState is a trivially recoverable state machine used to measure the
// log, not the application.
type counterState struct {
	Total int64 `json:"total"`
}

func (s *counterState) Apply(data []byte) error {
	s.Total += int64(len(data))
	return nil
}
func (s *counterState) Snapshot() ([]byte, error) { return json.Marshal(s) }
func (s *counterState) Restore(b []byte) error    { return json.Unmarshal(b, s) }

// e9 measures the write-ahead log: logging throughput under the two sync
// policies, crash-replay time, and the effect of checkpointing on replay.
func e9(quick bool) (Result, error) {
	ops := pick(quick, 500, 5000) // per run
	table := stats.NewTable("E9: recovery system",
		"configuration", "log ops/sec", "replay ops", "replay ms", "state intact")

	for _, cfg := range []struct {
		name       string
		sync       bool
		checkpoint bool
	}{
		{"group commit, no checkpoint", false, false},
		{"sync every append, no checkpoint", true, false},
		{"group commit + checkpoint@50%", false, true},
	} {
		row, err := e9Run(ops, cfg.sync, cfg.checkpoint)
		if err != nil {
			return Result{}, fmt.Errorf("E9 %s: %w", cfg.name, err)
		}
		table.AddRow(cfg.name, row.opsPerSec, row.replayOps, row.replayMillis, row.intact)
	}
	return Result{
		ID:     "E9",
		Title:  "Recovery: WAL throughput, crash replay, checkpoint ablation",
		Tables: []*stats.Table{table},
		Notes: []string{
			"Sync-per-append pays an fsync per op (orders of magnitude slower);",
			"a checkpoint at 50% halves the records replay must re-apply.",
		},
	}, nil
}

type e9Row struct {
	opsPerSec    float64
	replayOps    int
	replayMillis float64
	intact       bool
}

func e9Run(ops int, syncEvery, checkpoint bool) (e9Row, error) {
	dir, err := os.MkdirTemp("", "ndsm-e9")
	if err != nil {
		return e9Row{}, err
	}
	defer os.RemoveAll(dir)
	sm := &counterState{}
	mgr, err := recovery.NewManager(dir, sm, recovery.WALOptions{SyncEveryAppend: syncEvery})
	if err != nil {
		return e9Row{}, err
	}
	payload := make([]byte, 64)

	if syncEvery {
		// fsync-per-op is slow; keep the run bounded.
		ops = max(ops/10, 100)
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := mgr.Log(fmt.Sprintf("op-%d", i), payload); err != nil {
			return e9Row{}, err
		}
		if checkpoint && i == ops/2 {
			if err := mgr.Checkpoint(); err != nil {
				return e9Row{}, err
			}
		}
	}
	if !syncEvery {
		if err := mgr.Sync(); err != nil {
			return e9Row{}, err
		}
	}
	elapsed := time.Since(start)
	wantTotal := sm.Total
	if err := mgr.Close(); err != nil {
		return e9Row{}, err
	}

	// Crash and recover into a fresh state machine.
	sm2 := &counterState{}
	mgr2, err := recovery.NewManager(dir, sm2, recovery.WALOptions{})
	if err != nil {
		return e9Row{}, err
	}
	defer mgr2.Close() //nolint:errcheck
	replayStart := time.Now()
	applied, err := mgr2.Recover()
	if err != nil {
		return e9Row{}, err
	}
	replayElapsed := time.Since(replayStart)

	return e9Row{
		opsPerSec:    float64(ops) / elapsed.Seconds(),
		replayOps:    applied,
		replayMillis: float64(replayElapsed.Nanoseconds()) / 1e6,
		intact:       sm2.Total == wantTotal,
	}, nil
}
