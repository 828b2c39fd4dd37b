package endpoint

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/wire"
)

// waitUntil polls cond until it holds or the test times out.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLaneStampedOnWire(t *testing.T) {
	var mu sync.Mutex
	var got, traces []string
	s, c := newPair(t, ServerOptions{Name: "srv"}, CallerOptions{})
	s.Handle("probe", func(req *wire.Message) (*wire.Message, error) {
		mu.Lock()
		got = append(got, stampedLane(req))
		traces = append(traces, req.Headers["trace-id"])
		mu.Unlock()
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	if _, err := c.Do(&Call{Topic: "probe", Timeout: 2 * time.Second}); err != nil {
		t.Fatalf("default-lane call: %v", err)
	}
	if _, err := c.Do(&Call{Topic: "probe", Lane: LaneBulk, Timeout: 2 * time.Second}); err != nil {
		t.Fatalf("bulk-lane call: %v", err)
	}
	// Stamping must leave the caller's own header map alone: the server sees
	// it as it was, and the caller's copy is not mutated.
	mine := map[string]string{"trace-id": "abc"}
	if _, err := c.Do(&Call{Topic: "probe", Lane: LaneControl, Headers: mine, Timeout: 2 * time.Second}); err != nil {
		t.Fatalf("control-lane call: %v", err)
	}
	if len(mine) != 1 || mine["trace-id"] != "abc" {
		t.Fatalf("caller's header map mutated: %v", mine)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"", "bulk", "control"}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("call %d: lane stamp %q, want %q (all: %v)", i, got[i], w, want)
		}
	}
	if traces[2] != "abc" {
		t.Fatalf("control call's headers reached the server as %q, want its trace-id", traces[2])
	}
}

// stampedLane names the lane a request was stamped with, "" when unstamped.
func stampedLane(req *wire.Message) string {
	if req.Priority == 0 {
		return ""
	}
	return laneOf(req).String()
}

// Every lane's stamp reads back as that lane (callers leave default
// unstamped, but a shed reply charged to it is stamped); an unstamped request
// reads as default, and so does a stamp past the known lanes, never as
// control.
func TestLanePriorityStampRoundTrips(t *testing.T) {
	for _, lane := range laneByRank {
		m := &wire.Message{Topic: "ctl/stop", Priority: lane.priority()}
		if got := laneOf(m); got != lane {
			t.Errorf("stamp %d reads as %s, want %s", m.Priority, got, lane)
		}
	}
	if got := laneOf(&wire.Message{Topic: "ctl/stop"}); got != LaneDefault {
		t.Errorf("unstamped request reads as %s, want default", got)
	}
	if got := laneOf(&wire.Message{Topic: "ctl/stop", Priority: NumLanes + 1}); got != LaneDefault {
		t.Errorf("unknown stamp reads as %s, want default", got)
	}
}

func TestCallerDefaultLane(t *testing.T) {
	seen := make(chan string, 1)
	s, c := newPair(t, ServerOptions{Name: "srv"}, CallerOptions{Lane: LaneBulk})
	s.Handle("probe", func(req *wire.Message) (*wire.Message, error) {
		seen <- stampedLane(req)
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	if _, err := c.Do(&Call{Topic: "probe", Timeout: 2 * time.Second}); err != nil {
		t.Fatalf("call: %v", err)
	}
	if lane := <-seen; lane != "bulk" {
		t.Fatalf("caller default lane not stamped: %q", lane)
	}
	// An explicit per-call lane wins over the caller default.
	if _, err := c.Do(&Call{Topic: "probe", Lane: LaneControl, Timeout: 2 * time.Second}); err != nil {
		t.Fatalf("call: %v", err)
	}
	if lane := <-seen; lane != "control" {
		t.Fatalf("explicit lane did not win: %q", lane)
	}
}

// TestControlQuotaSurvivesBulkSaturation pins the tentpole isolation
// property: with a control-lane reservation, bulk traffic saturating the
// shared pool cannot shed a control request.
func TestControlQuotaSurvivesBulkSaturation(t *testing.T) {
	reg := obs.NewRegistry()
	entered := make(chan string, 8)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }

	s, c := newPair(t, ServerOptions{
		Name:        "srv",
		MaxInFlight: 2,
		Lanes:       &LaneConfig{Quota: map[Lane]int{LaneControl: 1}},
		Metrics:     reg,
	}, CallerOptions{})
	t.Cleanup(unblock)
	s.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		entered <- stampedLane(req)
		<-release
		return &wire.Message{Kind: wire.KindReply}, nil
	})

	// One bulk request takes the single shared slot (capacity 2, one slot
	// reserved for control).
	bulk1 := c.Go(&Call{Topic: "work", Lane: LaneBulk, Timeout: 5 * time.Second})
	if lane := <-entered; lane != "bulk" {
		t.Fatalf("first admit: lane %q", lane)
	}
	// The next bulk request finds no shared slot and must not touch the
	// control reservation.
	_, err := c.Do(&Call{Topic: "work", Lane: LaneBulk, Timeout: 5 * time.Second})
	if !IsShed(err) {
		t.Fatalf("saturating bulk call: got %v, want shed", err)
	}
	var shed *ShedError
	if ok := errors.As(err, &shed); !ok || shed.Lane != LaneBulk {
		t.Fatalf("shed lane not echoed: %+v", shed)
	}
	// Control still admits through its reservation.
	ctl := c.Go(&Call{Topic: "work", Lane: LaneControl, Timeout: 5 * time.Second})
	if lane := <-entered; lane != "control" {
		t.Fatalf("control admit: lane %q", lane)
	}
	unblock()
	if _, err := bulk1.Wait(); err != nil {
		t.Fatalf("bulk1: %v", err)
	}
	if _, err := ctl.Wait(); err != nil {
		t.Fatalf("ctl: %v", err)
	}
	if v := reg.Counter("srv.lane.bulk.shed").Value(); v != 1 {
		t.Fatalf("bulk shed counter = %d, want 1", v)
	}
	if v := reg.Counter("srv.lane.control.admitted").Value(); v != 1 {
		t.Fatalf("control admitted counter = %d, want 1", v)
	}
	if v := reg.Counter("srv.lane.control.shed").Value(); v != 0 {
		t.Fatalf("control shed counter = %d, want 0", v)
	}
}

// TestQueuePromotesControlFirst pins the pending queue's service order:
// released capacity goes to the highest lane first, regardless of arrival
// order.
func TestQueuePromotesControlFirst(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	var order []string
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }

	s, c := newPair(t, ServerOptions{
		Name:        "srv",
		MaxInFlight: 1,
		Lanes:       &LaneConfig{QueueDepth: 4},
		Metrics:     reg,
	}, CallerOptions{})
	t.Cleanup(unblock)
	s.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		mu.Lock()
		order = append(order, stampedLane(req))
		mu.Unlock()
		<-release
		return &wire.Message{Kind: wire.KindReply}, nil
	})

	first := c.Go(&Call{Topic: "work", Timeout: 5 * time.Second})
	waitUntil(t, "first dispatch", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 1
	})
	// Bulk arrives before control; both park in their lane queues.
	bulkF := c.Go(&Call{Topic: "work", Lane: LaneBulk, Timeout: 5 * time.Second})
	ctlF := c.Go(&Call{Topic: "work", Lane: LaneControl, Timeout: 5 * time.Second})
	waitUntil(t, "both queued", func() bool {
		return reg.Gauge("srv.lane.bulk.queued").Value() == 1 &&
			reg.Gauge("srv.lane.control.queued").Value() == 1
	})
	unblock()
	for _, f := range []*Future{first, ctlF, bulkF} {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("wait: %v", err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"", "control", "bulk"}
	if len(order) != 3 || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

// TestQueueShedsExpiredOnPromotion pins dead-weight shedding: a request
// whose deadline passed while queued is shed at promotion time, never
// dispatched.
func TestQueueShedsExpiredOnPromotion(t *testing.T) {
	reg := obs.NewRegistry()
	clock := simtime.NewVirtual(time.Unix(1000, 0))
	dispatched := make(chan string, 8)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }

	s, c := newPair(t, ServerOptions{
		Name:        "srv",
		MaxInFlight: 1,
		Lanes:       &LaneConfig{QueueDepth: 4},
		Metrics:     reg,
		Clock:       clock,
	}, CallerOptions{Clock: clock})
	t.Cleanup(unblock)
	s.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		dispatched <- stampedLane(req)
		<-release
		return &wire.Message{Kind: wire.KindReply}, nil
	})

	first := c.Go(&Call{Topic: "work", Timeout: NoTimeout})
	<-dispatched
	doomed := c.Go(&Call{Topic: "work", Lane: LaneBulk, Timeout: 50 * time.Millisecond})
	waitUntil(t, "doomed queued", func() bool {
		return reg.Gauge("srv.lane.bulk.queued").Value() == 1
	})
	clock.Advance(100 * time.Millisecond)
	unblock()
	if _, err := first.Wait(); err != nil {
		t.Fatalf("first: %v", err)
	}
	waitUntil(t, "expired shed", func() bool {
		return reg.Counter("srv.shed.expired").Value() == 1
	})
	if _, err := doomed.Wait(); err == nil {
		t.Fatal("expired queued call succeeded")
	}
	select {
	case lane := <-dispatched:
		t.Fatalf("expired request was dispatched (lane %q)", lane)
	default:
	}
}

// TestPreemptionBenefitOrder pins the full-queue preemption rules: a higher
// lane's arrival sheds a queued lower-lane entry; a same-lane arrival only
// tail-drops against fresh work; a lower lane can never displace a higher
// lane's queued entry.
func TestPreemptionBenefitOrder(t *testing.T) {
	reg := obs.NewRegistry()
	clock := simtime.NewVirtual(time.Unix(1000, 0))
	entered := make(chan string, 8)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }

	s, c := newPair(t, ServerOptions{
		Name:        "srv",
		MaxInFlight: 1,
		Lanes:       &LaneConfig{QueueDepth: 1},
		Metrics:     reg,
		Clock:       clock,
	}, CallerOptions{Clock: clock})
	t.Cleanup(unblock)
	s.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		entered <- stampedLane(req)
		<-release
		return &wire.Message{Kind: wire.KindReply}, nil
	})

	first := c.Go(&Call{Topic: "work", Timeout: NoTimeout})
	<-entered

	bulkF := c.Go(&Call{Topic: "work", Lane: LaneBulk, Timeout: time.Second})
	waitUntil(t, "bulk queued", func() bool {
		return reg.Gauge("srv.lane.bulk.queued").Value() == 1
	})
	ctl1 := c.Go(&Call{Topic: "work", Lane: LaneControl, Timeout: time.Second})
	waitUntil(t, "control queued", func() bool {
		return reg.Gauge("srv.lane.control.queued").Value() == 1
	})
	// Control queue is now full; the next control arrival preempts the
	// queued bulk entry (lower lane) rather than shedding itself.
	ctl2 := c.Go(&Call{Topic: "work", Lane: LaneControl, Timeout: time.Second})
	if _, err := bulkF.Wait(); !IsShed(err) {
		t.Fatalf("bulk entry not preempted: %v", err)
	}
	if v := reg.Counter("srv.shed.preempted").Value(); v != 1 {
		t.Fatalf("preempted counter = %d, want 1", v)
	}
	// Bulk queue freed: a new bulk entry queues, then a second one finds a
	// full queue of fresh same-lane work and tail-drops — and must not touch
	// the queued control entries.
	bulk3 := c.Go(&Call{Topic: "work", Lane: LaneBulk, Timeout: time.Second})
	waitUntil(t, "bulk requeued", func() bool {
		return reg.Gauge("srv.lane.bulk.queued").Value() == 1
	})
	_, err := c.Do(&Call{Topic: "work", Lane: LaneBulk, Timeout: time.Second})
	if !IsShed(err) {
		t.Fatalf("tail-drop bulk call: got %v, want shed", err)
	}
	if v := reg.Counter("srv.lane.control.shed").Value(); v != 0 {
		t.Fatalf("control entries were disturbed: shed = %d", v)
	}
	unblock()
	for name, f := range map[string]*Future{"first": first, "ctl1": ctl1, "ctl2": ctl2, "bulk3": bulk3} {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestShedBurstDoesNotTripBreaker is the shed/breaker contract: a shed is a
// server-healthy signal (the peer answered, deliberately), so a burst of
// sheds — even through a retry interceptor — reports successes to the
// breaker and never opens it.
func TestShedBurstDoesNotTripBreaker(t *testing.T) {
	reg := obs.NewRegistry()
	b := &fakeBreaker{}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }

	s, c := newPair(t, ServerOptions{Name: "srv", MaxInFlight: 1, Metrics: reg}, CallerOptions{
		Interceptors: []ClientInterceptor{
			WithBreaker(b, "srv", reg, "client"),
			WithRetry(false, reg, "client"),
		},
	})
	t.Cleanup(unblock)
	s.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return &wire.Message{Kind: wire.KindReply}, nil
	})

	// Occupy the only slot (Go bypasses the interceptor chain).
	first := c.Go(&Call{Topic: "work", Timeout: 5 * time.Second})
	<-entered

	const burst = 5
	var wg sync.WaitGroup
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Do(&Call{Topic: "work", Timeout: 5 * time.Second})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !IsShed(err) {
			t.Fatalf("burst call %d: got %v, want shed", i, err)
		}
	}
	b.mu.Lock()
	failures, successes := len(b.failures), len(b.successes)
	b.mu.Unlock()
	if failures != 0 {
		t.Fatalf("shed burst reported %d breaker failures", failures)
	}
	if successes < burst {
		t.Fatalf("breaker saw %d successes, want >= %d (sheds are proof of life)", successes, burst)
	}
	// The sheds were retried (retryable class) before surfacing.
	if v := reg.Counter("client.retries").Value(); v == 0 {
		t.Fatal("sheds were not retried")
	}
	unblock()
	if _, err := first.Wait(); err != nil {
		t.Fatalf("first: %v", err)
	}
	if _, err := c.Do(&Call{Topic: "work", Timeout: 5 * time.Second}); err != nil {
		t.Fatalf("post-burst call through breaker: %v", err)
	}
}

// The real-health.Monitor variant of the shed/breaker contract lives in
// lane_external_test.go (package endpoint_test): health imports discovery,
// which imports endpoint, so it cannot be linked into this package's tests.

// TestPreemptionTieBreaksTowardLowerLane pins the order preemption sheds in
// among entries of equal benefit: the lower lane first, and only then the
// older entry. Deadline-free entries all keep full benefit, so when a second
// control request meets a full control queue, the bulk entry is shed — not
// the default one queued before it.
func TestPreemptionTieBreaksTowardLowerLane(t *testing.T) {
	reg := obs.NewRegistry()
	entered := make(chan string, 8)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }

	s, c := newPair(t, ServerOptions{
		Name:        "srv",
		MaxInFlight: 1,
		Lanes:       &LaneConfig{QueueDepth: 1},
		Metrics:     reg,
	}, CallerOptions{})
	t.Cleanup(unblock)
	s.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		entered <- stampedLane(req)
		<-release
		return &wire.Message{Kind: wire.KindReply}, nil
	})

	hold := c.Go(&Call{Topic: "work", Timeout: NoTimeout})
	<-entered
	queue := func(lane Lane) *Future {
		f := c.Go(&Call{Topic: "work", Lane: lane, Timeout: NoTimeout})
		waitUntil(t, lane.String()+" queued", func() bool {
			return reg.Gauge("srv.lane."+lane.String()+".queued").Value() == 1
		})
		return f
	}
	def := queue(LaneDefault)
	bulk := queue(LaneBulk)
	ctl := queue(LaneControl)
	ctl2 := c.Go(&Call{Topic: "work", Lane: LaneControl, Timeout: NoTimeout})

	waitUntil(t, "the preemption", func() bool { return reg.Counter("srv.shed.preempted").Value() == 1 })
	if b, d := reg.Gauge("srv.lane.bulk.queued").Value(), reg.Gauge("srv.lane.default.queued").Value(); b != 0 || d != 1 {
		t.Fatalf("after the preemption %v bulk and %v default entries are queued, want 0 and 1", b, d)
	}
	unblock()
	var shed *ShedError
	if _, err := bulk.Wait(); !errors.As(err, &shed) || shed.Lane != LaneBulk {
		t.Fatalf("bulk entry: got %v, want it shed for the second control request", err)
	}
	for name, f := range map[string]*Future{"held": hold, "default": def, "control": ctl, "second control": ctl2} {
		if _, err := f.Wait(); err != nil {
			t.Errorf("%s request: %v", name, err)
		}
	}
}
