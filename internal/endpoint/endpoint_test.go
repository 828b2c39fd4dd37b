package endpoint

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/trace"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

func newPair(t *testing.T, sopts ServerOptions, copts CallerOptions) (*Server, *Caller) {
	t.Helper()
	tr := transport.NewMem(transport.NewFabric())
	l, err := tr.Listen("srv")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := NewServer(l, sopts)
	c, err := NewCaller(tr, "srv", copts)
	if err != nil {
		t.Fatalf("caller: %v", err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		_ = s.Close()
	})
	return s, c
}

func TestRoundtrip(t *testing.T) {
	s, c := newPair(t, ServerOptions{Name: "srv"}, CallerOptions{})
	s.Handle("echo", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply, Payload: req.Payload}, nil
	})
	m, err := c.Do(&Call{Topic: "echo", Payload: []byte("hi"), Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if string(m.Payload) != "hi" || m.Kind != wire.KindReply {
		t.Fatalf("bad reply: %+v", m)
	}
	if m.Src != "srv" {
		t.Fatalf("server name not stamped: %q", m.Src)
	}
	if m.Topic != "echo" {
		t.Fatalf("topic not filled: %q", m.Topic)
	}
}

func TestConcurrentCalls(t *testing.T) {
	s, c := newPair(t, ServerOptions{}, CallerOptions{Timeout: 5 * time.Second})
	s.Handle("id", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply, Payload: req.Payload}, nil
	})
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("call-%d", i)
			m, err := c.Do(&Call{Topic: "id", Payload: []byte(want)})
			if err != nil {
				errs <- err
				return
			}
			if string(m.Payload) != want {
				errs <- fmt.Errorf("cross-wired reply: got %q want %q", m.Payload, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestHandlerError(t *testing.T) {
	s, c := newPair(t, ServerOptions{}, CallerOptions{})
	s.Handle("boom", func(req *wire.Message) (*wire.Message, error) {
		return nil, errors.New("kaboom")
	})
	_, err := c.Do(&Call{Topic: "boom", Timeout: 2 * time.Second})
	re, ok := IsRemote(err)
	if !ok {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if re.Msg != "kaboom" || re.Topic != "boom" {
		t.Fatalf("bad remote error: %+v", re)
	}
	if Retryable(err, true) {
		t.Fatal("remote errors must not be retryable")
	}
}

func TestUnknownTopicFallback(t *testing.T) {
	_, c := newPair(t, ServerOptions{}, CallerOptions{})
	_, err := c.Do(&Call{Topic: "nope", Timeout: 2 * time.Second})
	if _, ok := IsRemote(err); !ok {
		t.Fatalf("want remote error for unknown topic, got %v", err)
	}
	if !strings.Contains(err.Error(), `no handler for topic "nope"`) {
		t.Fatalf("bad fallback message: %v", err)
	}
}

func TestUnhandle(t *testing.T) {
	s, c := newPair(t, ServerOptions{}, CallerOptions{})
	s.Handle("x", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	if _, err := c.Do(&Call{Topic: "x", Timeout: time.Second}); err != nil {
		t.Fatalf("call: %v", err)
	}
	s.Unhandle("x")
	if _, err := c.Do(&Call{Topic: "x", Timeout: time.Second}); err == nil {
		t.Fatal("want error after Unhandle")
	}
}

func TestTimeoutLeavesConnUsable(t *testing.T) {
	s, c := newPair(t, ServerOptions{}, CallerOptions{})
	block := make(chan struct{})
	s.Handle("slow", func(req *wire.Message) (*wire.Message, error) {
		<-block
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	s.Handle("fast", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	_, err := c.Do(&Call{Topic: "slow", Timeout: 30 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	close(block)
	// The same connection must still serve calls: a timeout only abandons
	// the waiter, it doesn't tear down the link.
	if _, err := c.Do(&Call{Topic: "fast", Timeout: 2 * time.Second}); err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
}

func TestNoTimeoutWaitsForever(t *testing.T) {
	s, c := newPair(t, ServerOptions{}, CallerOptions{Timeout: 20 * time.Millisecond})
	release := make(chan struct{})
	s.Handle("slow", func(req *wire.Message) (*wire.Message, error) {
		<-release
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(&Call{Topic: "slow", Timeout: NoTimeout})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("NoTimeout call returned early: %v", err)
	case <-time.After(60 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("call: %v", err)
	}
}

func TestDeadlinePropagation(t *testing.T) {
	s, c := newPair(t, ServerOptions{}, CallerOptions{})
	got := make(chan time.Time, 1)
	s.Handle("d", func(req *wire.Message) (*wire.Message, error) {
		got <- req.Deadline
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	before := time.Now()
	if _, err := c.Do(&Call{Topic: "d", Timeout: 5 * time.Second}); err != nil {
		t.Fatalf("call: %v", err)
	}
	dl := <-got
	if dl.IsZero() {
		t.Fatal("deadline not propagated")
	}
	if dl.Before(before.Add(4*time.Second)) || dl.After(before.Add(6*time.Second)) {
		t.Fatalf("deadline %v not ~5s from %v", dl, before)
	}
}

func TestCloseFailsOutstanding(t *testing.T) {
	s, c := newPair(t, ServerOptions{}, CallerOptions{})
	block := make(chan struct{})
	defer close(block)
	s.Handle("hang", func(req *wire.Message) (*wire.Message, error) {
		<-block
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(&Call{Topic: "hang", Timeout: NoTimeout})
		done <- err
	}()
	// Wait until the call is on the wire before closing.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c.mu.Lock()
		n := len(c.waiters)
		c.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("call never parked")
		}
		time.Sleep(time.Millisecond)
	}
	_ = c.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := c.Do(&Call{Topic: "hang"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close: want ErrClosed, got %v", err)
	}
}

// A Go future with no deadline waits on its reply alone, with no timer beside
// it: the teardown of its connection must still end it, whether the server
// drops the connection or the caller closes.
func TestGoNoTimeoutEndsOnTeardown(t *testing.T) {
	for _, tc := range []struct {
		name     string
		teardown func(s *Server, c *Caller)
		want     error
	}{
		{"server drops the connection", func(s *Server, _ *Caller) { go s.Close() }, ErrUnavailable},
		{"caller closes", func(_ *Server, c *Caller) { _ = c.Close() }, ErrClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, c := newPair(t, ServerOptions{}, CallerOptions{})
			started, release := make(chan struct{}), make(chan struct{})
			defer close(release) // lets the server's Close finish
			s.Handle("hang", func(req *wire.Message) (*wire.Message, error) {
				close(started)
				<-release
				return &wire.Message{Kind: wire.KindReply}, nil
			})
			f := c.Go(&Call{Topic: "hang", Timeout: NoTimeout})
			<-started
			done := make(chan error, 1)
			go func() {
				_, err := f.Wait()
				done <- err
			}()
			tc.teardown(s, c)
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) {
					t.Fatalf("Wait: err = %v, want %v", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("NoTimeout future not ended by the teardown")
			}
		})
	}
}

func TestEagerDialFailure(t *testing.T) {
	tr := transport.NewMem(transport.NewFabric())
	if _, err := NewCaller(tr, "nobody", CallerOptions{Eager: true}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
}

func TestNoRedialAfterServerGone(t *testing.T) {
	tr := transport.NewMem(transport.NewFabric())
	l, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(l, ServerOptions{})
	s.Handle("ping", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	c, err := NewCaller(tr, "srv", CallerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(&Call{Topic: "ping", Timeout: time.Second}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	_ = s.Close()
	// The in-flight connection dies; without Redial every later call is
	// ErrClosed (possibly after one ErrUnavailable race with the demux).
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := c.Do(&Call{Topic: "ping", Timeout: 100 * time.Millisecond})
		if errors.Is(err, ErrClosed) {
			return
		}
		if err == nil {
			t.Fatal("call succeeded against closed server")
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached ErrClosed, last err: %v", err)
		}
	}
}

func TestRedialRecovers(t *testing.T) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	l, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(l, ServerOptions{})
	s.Handle("ping", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	c, err := NewCaller(tr, "srv", CallerOptions{Redial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(&Call{Topic: "ping", Timeout: time.Second}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	_ = s.Close()

	// Restart the server on the same address; redial should find it.
	l2, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(l2, ServerOptions{})
	defer s2.Close()
	s2.Handle("ping", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := c.Do(&Call{Topic: "ping", Timeout: 200 * time.Millisecond})
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("redial never recovered: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// flakyTerminal fails the first n attempts with ErrUnavailable.
func flakyTerminal(n int) (ClientFunc, *atomic.Int64) {
	var calls atomic.Int64
	return func(call *Call) (*wire.Message, error) {
		if calls.Add(1) <= int64(n) {
			return nil, fmt.Errorf("%w: injected", ErrUnavailable)
		}
		return &wire.Message{Kind: wire.KindReply, Payload: []byte("ok")}, nil
	}, &calls
}

func TestRetryInterceptor(t *testing.T) {
	reg := obs.NewRegistry()
	term, calls := flakyTerminal(1)
	fn := chainClient([]ClientInterceptor{
		WithRetry(false, reg, "t"),
	}, term)
	m, err := fn(&Call{Topic: "x"})
	if err != nil {
		t.Fatalf("retried call: %v", err)
	}
	if string(m.Payload) != "ok" {
		t.Fatalf("bad payload %q", m.Payload)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
	if got := reg.Counter("t.retries").Value(); got != 1 {
		t.Fatalf("retries counter = %d, want 1", got)
	}
	if got := reg.Counter("t.retries_exhausted").Value(); got != 0 {
		t.Fatalf("exhausted counter = %d, want 0", got)
	}
}

func TestRetryExhausted(t *testing.T) {
	reg := obs.NewRegistry()
	term, calls := flakyTerminal(100)
	fn := chainClient([]ClientInterceptor{
		WithRetry(false, reg, "t"),
	}, term)
	_, err := fn(&Call{Topic: "x"})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2 (one retry)", got)
	}
	if got := reg.Counter("t.retries_exhausted").Value(); got != 1 {
		t.Fatalf("exhausted counter = %d, want 1", got)
	}
}

func TestRetryNeverRetriesRemoteOrClosed(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"remote", &RemoteError{Topic: "x", Msg: "app says no"}},
		{"closed", ErrClosed},
		{"timeout-not-opted-in", fmt.Errorf("%w: x", ErrTimeout)},
	} {
		var calls atomic.Int64
		fn := chainClient([]ClientInterceptor{
			WithRetry(false, obs.NewRegistry(), "t"),
		}, func(call *Call) (*wire.Message, error) {
			calls.Add(1)
			return nil, tc.err
		})
		_, _ = fn(&Call{Topic: "x"})
		if got := calls.Load(); got != 1 {
			t.Fatalf("%s: attempts = %d, want 1 (no retry)", tc.name, got)
		}
	}
}

func TestRetryTimeoutsOptIn(t *testing.T) {
	var calls atomic.Int64
	fn := chainClient([]ClientInterceptor{
		WithRetry(true, obs.NewRegistry(), "t"),
	}, func(call *Call) (*wire.Message, error) {
		calls.Add(1)
		return nil, fmt.Errorf("%w: x", ErrTimeout)
	})
	_, err := fn(&Call{Topic: "x"})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
}

func TestMetricsInterceptor(t *testing.T) {
	reg := obs.NewRegistry()
	term, _ := flakyTerminal(1)
	fn := chainClient([]ClientInterceptor{WithMetrics(reg, "m")}, term)
	_, _ = fn(&Call{Topic: "x"}) // fails (unavailable)
	_, _ = fn(&Call{Topic: "x"}) // succeeds
	if got := reg.Counter("m.calls").Value(); got != 2 {
		t.Fatalf("calls = %d, want 2", got)
	}
	if got := reg.Counter("m.errors").Value(); got != 1 {
		t.Fatalf("errors = %d, want 1", got)
	}
	if got := reg.Snapshot().Histograms["m.latency_ms"].Count; got != 2 {
		t.Fatalf("latency count = %d, want 2", got)
	}
}

func TestTracingInterceptor(t *testing.T) {
	col := trace.NewCollector(16)
	tr := trace.New(trace.Options{Name: "cli", Collector: col})
	var gotHeaders map[string]string
	term := func(call *Call) (*wire.Message, error) {
		gotHeaders = call.Headers
		return nil, fmt.Errorf("%w: injected", ErrUnavailable)
	}
	fn := chainClient([]ClientInterceptor{WithTracing(tr, "ep.call")}, term)
	orig := map[string]string{"queue": "q1"}
	call := &Call{Topic: "t1", Dst: "peer-1", Headers: orig}
	_, err := fn(call)
	if err == nil {
		t.Fatal("want terminal error through the interceptor")
	}
	if gotHeaders[trace.HeaderTraceID] == "" || gotHeaders[trace.HeaderSpanID] == "" {
		t.Fatalf("trace headers not injected: %v", gotHeaders)
	}
	if gotHeaders["queue"] != "q1" {
		t.Fatalf("existing headers lost: %v", gotHeaders)
	}
	if _, ok := orig[trace.HeaderTraceID]; ok {
		t.Fatal("caller's header map was mutated")
	}
	spans := col.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Name != "ep.call" || sp.Attrs["topic"] != "t1" || sp.Attrs["dst"] != "peer-1" {
		t.Fatalf("bad span: %+v", sp)
	}
	if sp.Err == "" || !strings.Contains(sp.Err, "injected") {
		t.Fatalf("span error not recorded: %q", sp.Err)
	}
	ctx := trace.Extract(gotHeaders)
	if ctx.TraceID != sp.TraceID || ctx.SpanID != sp.SpanID {
		t.Fatalf("injected context %+v does not match span %+v", ctx, sp)
	}
}

func TestServerTracingInterceptor(t *testing.T) {
	col := trace.NewCollector(16)
	tr := trace.New(trace.Options{Name: "srv", Collector: col})
	h := chainServer([]ServerInterceptor{WithServerTracing(tr, "srv.dispatch")},
		func(req *wire.Message) (*wire.Message, error) {
			return &wire.Message{Kind: wire.KindReply}, nil
		})

	// An untraced request stays untraced: no root span per dispatch.
	if _, err := h(&wire.Message{Topic: "t0"}); err != nil {
		t.Fatal(err)
	}
	if col.Len() != 0 {
		t.Fatalf("untraced request produced %d spans", col.Len())
	}

	parent := trace.Context{TraceID: 0xabc, SpanID: 0x123}
	req := &wire.Message{Topic: "t1", Src: "cli-1", Headers: trace.Inject(parent, nil)}
	if _, err := h(req); err != nil {
		t.Fatal(err)
	}
	spans := col.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.TraceID != parent.TraceID || sp.ParentID != parent.SpanID {
		t.Fatalf("server span not parented on wire context: %+v", sp)
	}
	if sp.Name != "srv.dispatch" || sp.Attrs["src"] != "cli-1" {
		t.Fatalf("bad server span: %+v", sp)
	}
}

// Tracing disabled must not add allocations to the call path: with no tracer
// the interceptors are left out of the chain, and a caller built with only
// them makes its round trip directly.
func TestTracingDisabledZeroAlloc(t *testing.T) {
	if WithTracing(nil, "ep.call") != nil || WithServerTracing(nil, "ep.serve") != nil {
		t.Fatal("an interceptor with no tracer should be left out of the chain")
	}
	_, c := newPair(t, ServerOptions{}, CallerOptions{Interceptors: []ClientInterceptor{WithTracing(nil, "ep.call")}})
	if len(c.opts.Interceptors) != 0 {
		t.Fatalf("the caller kept %d nil interceptors: its calls would copy through the chain", len(c.opts.Interceptors))
	}
}

// Classifying an error allocates nothing: IsShed and IsRemote run on every
// failed call (wide events, retries, the rpc and core error mapping).
func TestIsShedAllocFree(t *testing.T) {
	shed := fmt.Errorf("call: %w", &ShedError{Topic: "t"})
	remote := fmt.Errorf("call: %w", &RemoteError{Topic: "t", Msg: "boom"})
	if allocs := testing.AllocsPerRun(200, func() {
		if !IsShed(shed) || IsShed(remote) || IsShed(nil) {
			t.Fatal("IsShed misclassified")
		}
		if re, ok := IsRemote(remote); !ok || re.Msg != "boom" {
			t.Fatal("IsRemote missed a wrapped RemoteError")
		}
		if _, ok := IsRemote(shed); ok {
			t.Fatal("IsRemote took a shed for a remote error")
		}
	}); allocs != 0 {
		t.Fatalf("IsShed and IsRemote allocate %.1f objects, want 0", allocs)
	}
}

func TestInterceptorOrder(t *testing.T) {
	var order []string
	mk := func(name string) ClientInterceptor {
		return func(next ClientFunc) ClientFunc {
			return func(call *Call) (*wire.Message, error) {
				order = append(order, name)
				return next(call)
			}
		}
	}
	fn := chainClient([]ClientInterceptor{mk("outer"), mk("inner")},
		func(call *Call) (*wire.Message, error) { return nil, nil })
	_, _ = fn(&Call{})
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order = %v, want [outer inner]", order)
	}
}

func TestServerDispatchMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, c := newPair(t, ServerOptions{Metrics: reg, DispatchMetrics: "srv"}, CallerOptions{})
	s.Handle("ok", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	if _, err := c.Do(&Call{Topic: "ok", Timeout: time.Second}); err != nil {
		t.Fatalf("call: %v", err)
	}
	_, _ = c.Do(&Call{Topic: "missing", Timeout: time.Second})
	if got := reg.Counter("srv.requests").Value(); got != 2 {
		t.Fatalf("requests = %d, want 2", got)
	}
	if got := reg.Counter("srv.errors").Value(); got != 1 {
		t.Fatalf("errors = %d, want 1", got)
	}
}

func TestOnRecvHook(t *testing.T) {
	var recvd atomic.Int64
	s, c := newPair(t, ServerOptions{}, CallerOptions{
		OnRecv: func(*wire.Message) { recvd.Add(1) },
	})
	s.Handle("p", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	for i := 0; i < 3; i++ {
		if _, err := c.Do(&Call{Topic: "p", Timeout: time.Second}); err != nil {
			t.Fatalf("call: %v", err)
		}
	}
	if recvd.Load() != 3 {
		t.Fatalf("OnRecv saw %d messages, want 3", recvd.Load())
	}
}

func TestVirtualClockTimeout(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(0, 0))
	s, c := newPair(t, ServerOptions{}, CallerOptions{Clock: clock})
	block := make(chan struct{})
	defer close(block)
	s.Handle("hang", func(req *wire.Message) (*wire.Message, error) {
		<-block
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(&Call{Topic: "hang", Timeout: 10 * time.Second})
		done <- err
	}()
	waitPending(t, clock, 1)
	clock.Advance(11 * time.Second)
	if err := <-done; !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func waitPending(t *testing.T, clock *simtime.Virtual, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for clock.Pending() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d pending timers (have %d)", n, clock.Pending())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTracingSurvivesRedial pins that span propagation is per-call, not
// per-connection: after the server dies and the caller redials (a new
// connection generation), the next call's span still crosses the wire and the
// new server's span is parented under it.
func TestTracingSurvivesRedial(t *testing.T) {
	col := trace.NewCollector(64)
	ctr := trace.New(trace.Options{Name: "client", Collector: col})
	str := trace.New(trace.Options{Name: "server", Collector: col})

	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	serve := func() *Server {
		l, err := tr.Listen("srv")
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(l, ServerOptions{
			Name:         "srv",
			Interceptors: []ServerInterceptor{WithServerTracing(str, "srv.serve")},
		})
		s.Handle("ping", func(req *wire.Message) (*wire.Message, error) {
			return &wire.Message{Kind: wire.KindReply}, nil
		})
		return s
	}
	s := serve()
	c, err := NewCaller(tr, "srv", CallerOptions{
		Redial:       true,
		Interceptors: []ClientInterceptor{WithTracing(ctr, "client.call")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Do(&Call{Topic: "ping", Timeout: time.Second}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	_ = s.Close()
	s2 := serve() // same address, new listener: a fresh connection generation
	defer s2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.Do(&Call{Topic: "ping", Timeout: 200 * time.Millisecond}); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("redial never recovered: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Collect the successful client spans and check each has a server child
	// in the same trace — including the one after the redial.
	var clients, servers []trace.Span
	for _, sp := range col.Spans() {
		switch sp.Name {
		case "client.call":
			if sp.Err == "" {
				clients = append(clients, sp)
			}
		case "srv.serve":
			servers = append(servers, sp)
		}
	}
	if len(clients) != 2 {
		t.Fatalf("got %d successful client spans, want 2", len(clients))
	}
	if clients[0].TraceID == clients[1].TraceID {
		t.Fatal("independent calls share a trace ID")
	}
	for i, cs := range clients {
		found := false
		for _, ss := range servers {
			if ss.TraceID == cs.TraceID && ss.ParentID == cs.SpanID {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("call %d (trace %x): no server span parented under client span %x", i, cs.TraceID, cs.SpanID)
		}
	}
}

// A Call is 112 B, one size class, with Do's stopwatch and retry count in it:
// a program that allocates a Call per request (the overload benchmark's
// callers do) pays no more for them. A field more, or the stopwatch's start
// kept by value, moves it to 128 or 144 B.
func TestCallSize(t *testing.T) {
	if got := unsafe.Sizeof(Call{}); got > 112 {
		t.Errorf("Call is %d B, want at most 112", got)
	}
}
