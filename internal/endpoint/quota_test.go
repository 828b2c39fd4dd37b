package endpoint

import (
	"sync"
	"testing"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/wire"
)

// TestSetLaneQuotaWidensAdmission pins the runtime re-reservation seam the
// SLO quota adapter drives: with the server saturated, widening the control
// lane's quota admits control work that was being shed a moment before.
func TestSetLaneQuotaWidensAdmission(t *testing.T) {
	entered := make(chan string, 8)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }

	s, c := newPair(t, ServerOptions{
		Name:        "srv",
		MaxInFlight: 2,
		Lanes:       &LaneConfig{Quota: map[Lane]int{LaneControl: 1}},
		Metrics:     obs.NewRegistry(),
	}, CallerOptions{})
	t.Cleanup(unblock)
	s.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		entered <- stampedLane(req)
		<-release
		return &wire.Message{Kind: wire.KindReply}, nil
	})

	if q := laneQuota(s, LaneControl); q != 1 {
		t.Fatalf("initial control quota = %d, want 1", q)
	}

	// Saturate: one bulk call takes the shared slot, one control call takes
	// the reservation. A second control call sheds.
	bulk := c.Go(&Call{Topic: "work", Lane: LaneBulk, Timeout: 5 * time.Second})
	ctl1 := c.Go(&Call{Topic: "work", Lane: LaneControl, Timeout: 5 * time.Second})
	<-entered
	<-entered
	if _, err := c.Do(&Call{Topic: "work", Lane: LaneControl, Timeout: 5 * time.Second}); !IsShed(err) {
		t.Fatalf("saturated control call: got %v, want shed", err)
	}

	// Widen the reservation at runtime. The next control call admits even
	// though nothing has completed.
	if !s.SetLaneQuota(LaneControl, 2) {
		t.Fatal("SetLaneQuota reported no lane admission")
	}
	if q := laneQuota(s, LaneControl); q != 2 {
		t.Fatalf("widened control quota = %d, want 2", q)
	}
	ctl2 := c.Go(&Call{Topic: "work", Lane: LaneControl, Timeout: 5 * time.Second})
	if lane := <-entered; lane != "control" {
		t.Fatalf("post-widen admit: lane %q", lane)
	}

	unblock()
	for _, f := range []*Future{bulk, ctl1, ctl2} {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("in-flight call failed after widen: %v", err)
		}
	}
}

// TestSetLaneQuotaClampsToCapacity: growth is funded by the shared pool, so
// a quota beyond capacity clamps instead of inventing slots, and shrinking
// returns the slots to the pool.
func TestSetLaneQuotaClampsToCapacity(t *testing.T) {
	s, c := newPair(t, ServerOptions{
		Name:        "srv",
		MaxInFlight: 2,
		Lanes:       &LaneConfig{Quota: map[Lane]int{LaneControl: 1}},
		Metrics:     obs.NewRegistry(),
	}, CallerOptions{})
	s.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply}, nil
	})

	s.SetLaneQuota(LaneControl, 100)
	if q := laneQuota(s, LaneControl); q != 2 {
		t.Fatalf("over-capacity quota = %d, want clamp to 2", q)
	}

	// All capacity is now reserved for control: a bulk call finds no shared
	// slot... but nothing is in flight, so verify via the shrink path
	// instead — returning the quota frees the shared pool again.
	s.SetLaneQuota(LaneControl, 0)
	if q := laneQuota(s, LaneControl); q != 0 {
		t.Fatalf("released quota = %d, want 0", q)
	}
	if _, err := c.Do(&Call{Topic: "work", Lane: LaneBulk, Timeout: 5 * time.Second}); err != nil {
		t.Fatalf("bulk call after shrink: %v", err)
	}
}

// TestSetLaneQuotaPromotesQueuedWork: widening the reservation must drain
// the pending queue immediately — queued control work cannot wait for an
// unrelated completion to notice the new headroom.
func TestSetLaneQuotaPromotesQueuedWork(t *testing.T) {
	entered := make(chan string, 8)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }

	s, c := newPair(t, ServerOptions{
		Name:        "srv",
		MaxInFlight: 2,
		Lanes:       &LaneConfig{Quota: map[Lane]int{LaneControl: 1}, QueueDepth: 2},
		Metrics:     obs.NewRegistry(),
	}, CallerOptions{})
	t.Cleanup(unblock)
	s.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		entered <- stampedLane(req)
		<-release
		return &wire.Message{Kind: wire.KindReply}, nil
	})

	bulk := c.Go(&Call{Topic: "work", Lane: LaneBulk, Timeout: 10 * time.Second})
	ctl1 := c.Go(&Call{Topic: "work", Lane: LaneControl, Timeout: 10 * time.Second})
	<-entered
	<-entered
	// Queued: both slots busy, depth 2 has room.
	ctl2 := c.Go(&Call{Topic: "work", Lane: LaneControl, Timeout: 10 * time.Second})
	waitUntil(t, "control call to queue", func() bool { return queuedDepth(s, LaneControl) == 1 })

	s.SetLaneQuota(LaneControl, 2)
	if lane := <-entered; lane != "control" {
		t.Fatalf("promoted lane %q, want control", lane)
	}
	unblock()
	for _, f := range []*Future{bulk, ctl1, ctl2} {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("call failed: %v", err)
		}
	}
}

// queuedDepth reads a lane's pending-queue length.
func queuedDepth(s *Server, lane Lane) int {
	s.adm.mu.Lock()
	defer s.adm.mu.Unlock()
	return len(s.adm.queues[lane.rank()])
}

// TestSetLaneQuotaWithoutLanes: flat and unlimited servers have no lane
// reservations to retune.
func TestSetLaneQuotaWithoutLanes(t *testing.T) {
	flat, _ := newPair(t, ServerOptions{Name: "flat", MaxInFlight: 4}, CallerOptions{})
	if flat.SetLaneQuota(LaneControl, 2) || laneQuota(flat, LaneControl) != 0 {
		t.Fatal("flat server accepted a lane quota")
	}
	unlimited, _ := newPair(t, ServerOptions{Name: "unlimited"}, CallerOptions{})
	if unlimited.SetLaneQuota(LaneControl, 2) || laneQuota(unlimited, LaneControl) != 0 {
		t.Fatal("unlimited server accepted a lane quota")
	}
}

// laneQuota reads a lane's current reserved quota on s (0 without lane-aware
// admission).
func laneQuota(s *Server, lane Lane) int {
	if s.adm == nil || !s.adm.laneAware {
		return 0
	}
	s.adm.mu.Lock()
	defer s.adm.mu.Unlock()
	return s.adm.quota[lane.rank()]
}
