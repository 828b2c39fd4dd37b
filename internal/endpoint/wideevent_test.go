package endpoint

import (
	"sync/atomic"
	"testing"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/reqlog"
	"ndsm/internal/simtime"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

func newTestRecorder() *reqlog.Recorder {
	return reqlog.New(reqlog.Options{
		Capacity:    256,
		SampleEvery: 1, // keep everything: these tests assert on exemplars
		Registry:    obs.NewRegistry(),
	})
}

// TestWideEventsClientInterceptor drives the interceptor through a caller on a
// virtual clock, whose handler takes 7 ms, and checks the recorded event for
// each outcome class: an interceptor inside it turns the reply into each
// error in turn.
func TestWideEventsClientInterceptor(t *testing.T) {
	rec := newTestRecorder()
	clk := simtime.NewVirtual(time.Unix(1_700_000_000, 0))
	var outcome error
	s, c := newPair(t, ServerOptions{}, CallerOptions{Clock: clk, Interceptors: []ClientInterceptor{
		WithWideEvents(WideEventOptions{Recorder: rec, Peer: "srv-1"}),
		func(next ClientFunc) ClientFunc {
			return func(call *Call) (*wire.Message, error) {
				_, _ = next(call)
				return nil, outcome
			}
		},
	}})

	cases := []struct {
		name        string
		err         error
		wantOutcome string
	}{
		{"ok", nil, reqlog.OutcomeOK},
		{"shed", &ShedError{Topic: "t", Lane: LaneBulk}, reqlog.OutcomeShed},
		{"timeout", ErrTimeout, reqlog.OutcomeTimeout},
		{"unavailable", ErrUnavailable, reqlog.OutcomeUnavailable},
		{"remote", &RemoteError{Topic: "t", Msg: "boom"}, reqlog.OutcomeError},
	}
	for _, tc := range cases {
		topic := "topic/" + tc.name
		s.Handle(topic, func(req *wire.Message) (*wire.Message, error) {
			clk.Advance(7 * time.Millisecond)
			return NewReply(nil), nil
		})
		outcome = tc.err
		start := clk.Now()
		_, _ = c.Do(&Call{Topic: topic, Lane: LaneBulk, Timeout: 100 * time.Millisecond})
		got := rec.Snapshot(reqlog.Filter{Topic: topic})
		if len(got) != 1 {
			t.Fatalf("%s: %d records, want 1", tc.name, len(got))
		}
		ev := got[0]
		if ev.Outcome != tc.wantOutcome || ev.Kind != reqlog.KindClient {
			t.Errorf("%s: outcome=%s kind=%s", tc.name, ev.Outcome, ev.Kind)
		}
		if ev.Latency != 7*time.Millisecond || !ev.Time.Equal(start.Add(7*time.Millisecond)) {
			t.Errorf("%s: latency = %v, time = %v, want 7ms after %v", tc.name, ev.Latency, ev.Time, start)
		}
		if ev.Peer != "srv-1" || ev.Lane != "bulk" {
			t.Errorf("%s: peer=%s lane=%s", tc.name, ev.Peer, ev.Lane)
		}
		if !ev.HasDeadline || ev.DeadlineSlack != 93*time.Millisecond {
			t.Errorf("%s: deadline slack = %v (has=%v), want 93ms", tc.name, ev.DeadlineSlack, ev.HasDeadline)
		}
	}
}

// TestWideEventsCountRetries checks the retry interceptor's attempt count
// lands on the single wide event recorded for the logical call.
func TestWideEventsCountRetries(t *testing.T) {
	rec := newTestRecorder()
	reg := obs.NewRegistry()
	chain := chainClient([]ClientInterceptor{
		WithWideEvents(WideEventOptions{Recorder: rec}),
		WithRetry(false, reg, "test"),
	}, func() ClientFunc {
		n := 0
		return func(call *Call) (*wire.Message, error) {
			n++
			if n < 2 {
				return nil, ErrUnavailable
			}
			return &wire.Message{Kind: wire.KindReply}, nil
		}
	}())
	if _, err := chain(&Call{Topic: "flaky"}); err != nil {
		t.Fatal(err)
	}
	got := rec.Snapshot(reqlog.Filter{Topic: "flaky"})
	if len(got) != 1 {
		t.Fatalf("logical call recorded %d events, want 1", len(got))
	}
	if got[0].Retries != 1 || got[0].Outcome != reqlog.OutcomeOK {
		t.Errorf("event = retries %d outcome %s, want 1 retry ok", got[0].Retries, got[0].Outcome)
	}
}

// A call WithRetry retries gets one wide event, timed from before the first
// attempt to the reply that ended the second: on a virtual clock, a first
// attempt that times out after 60 ms and a second that takes 30 read 90.
func TestWideEventSpansRetries(t *testing.T) {
	rec := newTestRecorder()
	clk := simtime.NewVirtual(time.Unix(1_700_000_000, 0))
	s, c := newPair(t, ServerOptions{}, CallerOptions{Clock: clk, Interceptors: []ClientInterceptor{
		WithWideEvents(WideEventOptions{Recorder: rec}),
		WithRetry(true, nil, "test"),
	}})
	release := make(chan struct{})
	defer close(release)
	var calls atomic.Int32
	s.Handle("slow", func(req *wire.Message) (*wire.Message, error) {
		if calls.Add(1) == 1 {
			// Once the caller waits on its deadline timer, pass it.
			for clk.Pending() == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			clk.Advance(60 * time.Millisecond)
			<-release
			return nil, nil
		}
		clk.Advance(30 * time.Millisecond)
		return NewReply(nil), nil
	})
	call := &Call{Topic: "slow", Timeout: 50 * time.Millisecond}
	if _, err := c.Do(call); err != nil {
		t.Fatal(err)
	}
	got := rec.Snapshot(reqlog.Filter{Topic: "slow"})
	if len(got) != 1 {
		t.Fatalf("retried call recorded %d events, want 1", len(got))
	}
	if ev := got[0]; ev.Retries != 1 || ev.Latency != 90*time.Millisecond || ev.Outcome != reqlog.OutcomeOK {
		t.Errorf("event = %d retries, %v, %s; want 1 retry, 90ms, ok", ev.Retries, ev.Latency, ev.Outcome)
	}
	if call.Elapsed() != 90*time.Millisecond {
		t.Errorf("Call.Elapsed = %v, want 90ms", call.Elapsed())
	}
}

// TestWideEventsNilRecorderPassthrough pins the disabled path: no recorder,
// no wrapper, zero allocations.
func TestWideEventsNilRecorderPassthrough(t *testing.T) {
	base := func(call *Call) (*wire.Message, error) { return nil, nil }
	fn := WithWideEvents(WideEventOptions{})(base)
	call := &Call{Topic: "x"}
	if avg := testing.AllocsPerRun(1000, func() { _, _ = fn(call) }); avg != 0 {
		t.Errorf("disabled interceptor allocates %.3f allocs/op", avg)
	}
}

// TestWideEventsSampledOutAllocFree pins the enabled hot path: a healthy
// call whose record the sampler drops must not allocate.
func TestWideEventsSampledOutAllocFree(t *testing.T) {
	rec := reqlog.New(reqlog.Options{
		Capacity:    64,
		SampleEvery: 1 << 30,
		Registry:    obs.NewRegistry(),
	})
	fn := WithWideEvents(WideEventOptions{Recorder: rec})(
		func(call *Call) (*wire.Message, error) { return nil, nil })
	call := &Call{Topic: "warm"}
	for i := 0; i < 50_000; i++ {
		_, _ = fn(call)
	}
	if avg := testing.AllocsPerRun(20_000, func() { _, _ = fn(call) }); avg != 0 {
		t.Errorf("sampled-out wide-event path allocates %.3f allocs/op, want 0", avg)
	}
}

// TestServerRecordsDispatchAndShed runs a bounded server end to end and
// checks both sides: dispatched requests get server wide events with
// latency, sheds get events carrying the reject reason.
func TestServerRecordsDispatchAndShed(t *testing.T) {
	tr := transport.NewMem(transport.NewFabric())
	l, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	rec := newTestRecorder()
	block := make(chan struct{})
	release := make(chan struct{})
	srv := NewServer(l, ServerOptions{
		Name:        "srv",
		MaxInFlight: 1,
		ReqLog:      rec,
		Metrics:     obs.NewRegistry(),
	})
	defer srv.Close()
	srv.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		block <- struct{}{}
		<-release
		return &wire.Message{Kind: wire.KindReply}, nil
	})

	c, err := NewCaller(tr, "srv", CallerOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	first := c.Go(&Call{Topic: "work"})
	<-block // the slot is held; the next call must shed
	if _, err := c.Do(&Call{Topic: "work"}); !IsShed(err) {
		t.Fatalf("second call err = %v, want shed", err)
	}
	close(release)
	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	var sheds, oks []reqlog.Record
	for time.Now().Before(deadline) {
		sheds = rec.Snapshot(reqlog.Filter{Outcome: reqlog.OutcomeShed})
		oks = rec.Snapshot(reqlog.Filter{Outcome: reqlog.OutcomeOK})
		if len(sheds) == 1 && len(oks) == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(sheds) != 1 || len(oks) != 1 {
		t.Fatalf("events: %d shed, %d ok (want 1 each)", len(sheds), len(oks))
	}
	if sheds[0].ShedReason != "server at capacity" || sheds[0].Kind != reqlog.KindServer {
		t.Errorf("shed event: %+v", sheds[0])
	}
	if oks[0].Topic != "work" || oks[0].Latency <= 0 {
		t.Errorf("dispatch event: %+v", oks[0])
	}
}
