package endpoint

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/wire"
)

// fakeBreaker scripts Allow verdicts and records reports.
type fakeBreaker struct {
	mu        sync.Mutex
	deny      bool
	successes []string
	failures  []string
}

func (b *fakeBreaker) Allow(peer string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.deny {
		return errors.New("scripted open")
	}
	return nil
}

func (b *fakeBreaker) ReportSuccess(peer string) {
	b.mu.Lock()
	b.successes = append(b.successes, peer)
	b.mu.Unlock()
}

func (b *fakeBreaker) ReportFailure(peer string) {
	b.mu.Lock()
	b.failures = append(b.failures, peer)
	b.mu.Unlock()
}

func (b *fakeBreaker) setDeny(v bool) {
	b.mu.Lock()
	b.deny = v
	b.mu.Unlock()
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name          string
		err           error
		retryTimeouts bool
		want          bool
	}{
		{"nil", nil, true, false},
		{"closed", ErrClosed, true, false},
		{"circuit-open", ErrCircuitOpen, true, false},
		{"unavailable", ErrUnavailable, false, true},
		{"timeout-optout", ErrTimeout, false, false},
		{"timeout-optin", ErrTimeout, true, true},
		{"remote", &RemoteError{Topic: "t", Msg: "boom"}, true, false},
		{"shed", &ShedError{Topic: "t"}, false, true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err, tc.retryTimeouts); got != tc.want {
			t.Errorf("%s: Retryable(%v, %v) = %v, want %v", tc.name, tc.err, tc.retryTimeouts, got, tc.want)
		}
	}
}

func TestWithBreakerFailsFastOnOpenCircuit(t *testing.T) {
	b := &fakeBreaker{deny: true}
	reg := obs.NewRegistry()
	var reached bool
	chain := WithBreaker(b, "peer-a", reg, "test")(func(*Call) (*wire.Message, error) {
		reached = true
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	_, err := chain(&Call{Topic: "x"})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if reached {
		t.Fatal("open circuit must not reach the wire")
	}
	if Retryable(err, true) {
		t.Fatal("circuit-open rejections must not be retried")
	}
	if got := reg.Counter("test.breaker_fast_fails").Value(); got != 1 {
		t.Fatalf("breaker_fast_fails = %d, want 1", got)
	}
}

func TestWithBreakerReportsOutcomes(t *testing.T) {
	b := &fakeBreaker{}
	cases := []struct {
		name        string
		err         error
		wantSuccess bool
		wantFailure bool
	}{
		{"ok", nil, true, false},
		{"unavailable", ErrUnavailable, false, true},
		{"timeout", ErrTimeout, false, true},
		{"remote", &RemoteError{Topic: "t", Msg: "app error"}, true, false},
		{"shed", &ShedError{Topic: "t"}, true, false},
		{"closed", ErrClosed, false, false},
	}
	for _, tc := range cases {
		b.successes, b.failures = nil, nil
		chain := WithBreaker(b, "", nil, "test")(func(*Call) (*wire.Message, error) {
			if tc.err != nil {
				return nil, tc.err
			}
			return &wire.Message{Kind: wire.KindReply}, nil
		})
		_, _ = chain(&Call{Topic: "x", Dst: "peer-b"})
		if got := len(b.successes) == 1; got != tc.wantSuccess {
			t.Errorf("%s: success reported=%v, want %v", tc.name, got, tc.wantSuccess)
		}
		if got := len(b.failures) == 1; got != tc.wantFailure {
			t.Errorf("%s: failure reported=%v, want %v", tc.name, got, tc.wantFailure)
		}
		if tc.wantSuccess && b.successes[0] != "peer-b" {
			t.Errorf("%s: breaker keyed by %q, want call.Dst peer-b", tc.name, b.successes[0])
		}
	}
}

func TestWithBreakerRecoversWhenCircuitCloses(t *testing.T) {
	b := &fakeBreaker{deny: true}
	chain := WithBreaker(b, "peer-a", obs.NewRegistry(), "test")(func(*Call) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	if _, err := chain(&Call{Topic: "x"}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	b.setDeny(false)
	if _, err := chain(&Call{Topic: "x"}); err != nil {
		t.Fatalf("closed circuit should pass the call: %v", err)
	}
}

func TestAdmissionControlShedsAtCapacity(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	s, c := newPair(t,
		ServerOptions{Name: "srv", MaxInFlight: 2, Metrics: reg},
		CallerOptions{Timeout: 5 * time.Second})
	s.Handle("slow", func(req *wire.Message) (*wire.Message, error) {
		entered <- struct{}{}
		<-release
		return &wire.Message{Kind: wire.KindReply, Payload: req.Payload}, nil
	})

	// Fill the admission bound with two parked calls.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Do(&Call{Topic: "slow"})
			errs <- err
		}()
	}
	<-entered
	<-entered

	// The third call must be shed before dispatch, as a retryable error.
	_, err := c.Do(&Call{Topic: "slow"})
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShedError", err)
	}
	if !IsShed(err) {
		t.Fatal("IsShed(err) = false")
	}
	if !Retryable(err, false) {
		t.Fatal("shed rejections must be retryable")
	}
	if got := reg.Counter("srv.shed").Value(); got != 1 {
		t.Fatalf("srv.shed = %d, want 1", got)
	}

	// Draining the parked calls frees capacity again.
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("parked call failed: %v", err)
		}
	}
	if _, err := c.Do(&Call{Topic: "slow"}); err != nil {
		t.Fatalf("call after drain failed: %v", err)
	}
}

func TestRetryBacksOffOnShedButNotOnRemote(t *testing.T) {
	// A shed reply is retryable: WithRetry re-attempts once, and capacity
	// has freed by then.
	attempts := 0
	chain := WithRetry(false, obs.NewRegistry(), "test")(
		func(*Call) (*wire.Message, error) {
			attempts++
			if attempts < 2 {
				return nil, &ShedError{Topic: "x"}
			}
			return &wire.Message{Kind: wire.KindReply}, nil
		})
	if _, err := chain(&Call{Topic: "x"}); err != nil {
		t.Fatalf("retries did not absorb shed replies: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}

	// A remote error is terminal: one attempt, no retries.
	attempts = 0
	chain = WithRetry(false, obs.NewRegistry(), "test")(
		func(*Call) (*wire.Message, error) {
			attempts++
			return nil, &RemoteError{Topic: "x", Msg: "boom"}
		})
	if _, err := chain(&Call{Topic: "x"}); err == nil {
		t.Fatal("remote error swallowed")
	}
	if attempts != 1 {
		t.Fatalf("terminal remote error retried: attempts = %d, want 1", attempts)
	}
}
