package endpoint

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

func TestGoAndWait(t *testing.T) {
	s, c := newPair(t, ServerOptions{Name: "srv"}, CallerOptions{})
	s.Handle("echo", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply, Payload: req.Payload}, nil
	})
	fut := c.Go(&Call{Topic: "echo", Payload: []byte("async"), Timeout: 2 * time.Second})
	m, err := fut.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if string(m.Payload) != "async" || m.Kind != wire.KindReply {
		t.Fatalf("bad reply: %+v", m)
	}
	// Wait is idempotent.
	m2, err2 := fut.Wait()
	if err2 != nil || m2 != m {
		t.Fatalf("second Wait diverged: %v %v", m2, err2)
	}
}

// Pipelining: many requests in flight on the one connection before any reply
// is consumed, each future resolving to its own correlated reply.
func TestGoPipelined(t *testing.T) {
	s, c := newPair(t, ServerOptions{}, CallerOptions{Timeout: 5 * time.Second})
	s.Handle("id", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply, Payload: req.Payload}, nil
	})
	const n = 300 // crosses a sweep boundary (sweepInterval) mid-pipeline
	futs := make([]*Future, n)
	for i := range futs {
		futs[i] = c.Go(&Call{Topic: "id", Payload: []byte(fmt.Sprintf("m-%d", i))})
	}
	for i, fut := range futs {
		m, err := fut.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if want := fmt.Sprintf("m-%d", i); string(m.Payload) != want {
			t.Fatalf("cross-wired reply %d: got %q want %q", i, m.Payload, want)
		}
	}
}

func TestOneWayDispatch(t *testing.T) {
	var got atomic.Int64
	delivered := make(chan string, 8)
	s, c := newPair(t, ServerOptions{OneWayKinds: []wire.Kind{wire.KindData}}, CallerOptions{})
	s.Handle("ingest", func(req *wire.Message) (*wire.Message, error) {
		got.Add(1)
		delivered <- string(req.Payload)
		return nil, nil
	})
	fut := c.Go(&Call{Topic: "ingest", Payload: []byte("sample"), OneWay: true})
	m, err := fut.Wait()
	if err != nil || m != nil {
		t.Fatalf("one-way Wait = %v, %v; want nil, nil", m, err)
	}
	select {
	case p := <-delivered:
		if p != "sample" {
			t.Fatalf("delivered %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("one-way message never dispatched")
	}
}

// A handler error on a one-way call is discarded — nothing comes back and the
// connection stays usable.
func TestOneWayHandlerErrorIsSilent(t *testing.T) {
	s, c := newPair(t, ServerOptions{OneWayKinds: []wire.Kind{wire.KindData}}, CallerOptions{})
	ran := make(chan struct{}, 1)
	s.Handle("boom", func(req *wire.Message) (*wire.Message, error) {
		ran <- struct{}{}
		return nil, errors.New("handler exploded")
	})
	s.Handle("echo", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	if _, err := c.Go(&Call{Topic: "boom", OneWay: true}).Wait(); err != nil {
		t.Fatalf("one-way send: %v", err)
	}
	<-ran
	if _, err := c.Do(&Call{Topic: "echo", Timeout: 2 * time.Second}); err != nil {
		t.Fatalf("connection unusable after one-way handler error: %v", err)
	}
}

// Mid-pipeline connection drop: every in-flight future must fail promptly
// with a retryable unavailability error — no hangs, no lost promises.
func TestMidPipelineDropFailsAllFutures(t *testing.T) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	l, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	s := NewServer(l, ServerOptions{})
	s.Handle("stall", func(req *wire.Message) (*wire.Message, error) {
		<-block
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	c, err := NewCaller(tr, "srv", CallerOptions{Redial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	futs := make([]*Future, n)
	for i := range futs {
		futs[i] = c.Go(&Call{Topic: "stall", Timeout: 30 * time.Second})
	}
	close(block)
	_ = s.Close() // tears the connection under the pipeline

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, fut := range futs {
			_, err := fut.Wait()
			if err == nil {
				// The reply may have raced the teardown; that's a success.
				continue
			}
			if !errors.Is(err, ErrUnavailable) {
				t.Errorf("future %d: err = %v, want ErrUnavailable", i, err)
			}
			if !Retryable(err, false) {
				t.Errorf("future %d: drop error not retryable: %v", i, err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("futures hung after mid-pipeline connection drop")
	}
}

// Race stress: concurrent Go, Do, Wait, redial, and Close. Run with -race.
// The invariant is liveness plus sane errors — every operation returns, and
// failures are ErrClosed/ErrUnavailable/ErrTimeout, never a wrong reply.
func TestGoCallCloseRaceStress(t *testing.T) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	l, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(l, ServerOptions{OneWayKinds: []wire.Kind{wire.KindData}})
	s.Handle("echo", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply, Payload: req.Payload}, nil
	})
	defer s.Close()
	c, err := NewCaller(tr, "srv", CallerOptions{Redial: true, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				want := fmt.Sprintf("g%d-%d", g, i)
				var m *wire.Message
				var err error
				switch i % 3 {
				case 0:
					m, err = c.Do(&Call{Topic: "echo", Payload: []byte(want)})
				case 1:
					m, err = c.Go(&Call{Topic: "echo", Payload: []byte(want)}).Wait()
				default:
					_, err = c.Go(&Call{Topic: "echo", Payload: []byte(want), OneWay: true}).Wait()
					continue
				}
				if err != nil {
					if errors.Is(err, ErrClosed) || errors.Is(err, ErrUnavailable) || errors.Is(err, ErrTimeout) {
						continue
					}
					t.Errorf("unexpected error class: %v", err)
					return
				}
				if string(m.Payload) != want {
					t.Errorf("cross-wired reply: got %q want %q", m.Payload, want)
					return
				}
			}
		}(g)
	}
	// Drop the caller's connection a few times mid-traffic; Redial recovers.
	for k := 0; k < 5; k++ {
		time.Sleep(20 * time.Millisecond)
		c.mu.Lock()
		if c.conn != nil {
			_ = c.conn.Close()
		}
		c.mu.Unlock()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	_ = c.Close()
	// After Close every new call fails fast with ErrClosed.
	if _, err := c.Go(&Call{Topic: "echo"}).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Go = %v, want ErrClosed", err)
	}
}

// Wait honours the deadline fixed at issue time: once it passes, Wait
// returns ErrTimeout immediately, and the connection survives for later
// calls (the late reply is discarded by the demux).
func TestFutureWaitDeadline(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(1000, 0))
	block := make(chan struct{})
	s, c := newPair(t, ServerOptions{}, CallerOptions{Clock: clock})
	s.Handle("stall", func(req *wire.Message) (*wire.Message, error) {
		<-block
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	s.Handle("echo", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	fut := c.Go(&Call{Topic: "stall", Timeout: time.Second})
	clock.Advance(2 * time.Second)
	if _, err := fut.Wait(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired Wait = %v, want ErrTimeout", err)
	}
	close(block)
	if _, err := c.Do(&Call{Topic: "echo", Timeout: NoTimeout}); err != nil {
		t.Fatalf("connection unusable after future timeout: %v", err)
	}
}

// advancingClock is a virtual clock that moves on by jump inside the first
// Timer, between a Wait fixing the instant its call ends and arming the timer
// for it.
type advancingClock struct {
	*simtime.Virtual
	jump time.Duration
	once sync.Once
}

func (c *advancingClock) Timer(at time.Time) simtime.Timer {
	c.once.Do(func() { c.Virtual.Advance(c.jump) })
	return c.Virtual.Timer(at)
}

// A clock that passes the deadline while Wait arms its timer still ends the
// Wait: the timer is not counted from the later instant.
func TestFutureWaitDeadlineClockMovesWhileArming(t *testing.T) {
	clock := &advancingClock{Virtual: simtime.NewVirtual(time.Unix(1000, 0)), jump: 200 * time.Millisecond}
	block := make(chan struct{})
	defer close(block) // runs before newPair's cleanup closes the server
	s, c := newPair(t, ServerOptions{}, CallerOptions{Clock: clock})
	s.Handle("stall", func(req *wire.Message) (*wire.Message, error) {
		<-block
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	fut := c.Go(&Call{Topic: "stall", Timeout: 100 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := fut.Wait()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("Wait = %v, want ErrTimeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait still blocked 2 s after the clock passed its deadline")
	}
}

// A clock that moves short of the deadline while Wait arms its timer still
// ends the Wait when it reaches the deadline, not one jump later.
func TestFutureWaitDeadlineClockMovesShortWhileArming(t *testing.T) {
	clock := &advancingClock{Virtual: simtime.NewVirtual(time.Unix(1000, 0)), jump: 50 * time.Millisecond}
	block := make(chan struct{})
	defer close(block) // runs before newPair's cleanup closes the server
	s, c := newPair(t, ServerOptions{}, CallerOptions{Clock: clock})
	s.Handle("stall", func(req *wire.Message) (*wire.Message, error) {
		<-block
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	fut := c.Go(&Call{Topic: "stall", Timeout: 100 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := fut.Wait()
		done <- err
	}()
	for clock.Pending() == 0 { // Wait has armed a timer
		select {
		case err := <-done:
			t.Fatalf("Wait = %v before the clock reached the deadline", err)
		case <-time.After(time.Millisecond):
		}
	}
	clock.Advance(50 * time.Millisecond) // to the deadline, not past it
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("Wait = %v, want ErrTimeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait still blocked 2 s after the clock reached its deadline")
	}
}

// A wall clock other than simtime.Real moves on every read. Wait arms its
// timer once for it and returns the reply when it comes, long before the
// deadline.
func TestFutureWaitWallClockWrapper(t *testing.T) {
	s, c := newPair(t, ServerOptions{}, CallerOptions{Clock: &simtime.Real{}})
	s.Handle("slow", func(req *wire.Message) (*wire.Message, error) {
		time.Sleep(20 * time.Millisecond) // the reply comes after Wait arms
		return &wire.Message{Kind: wire.KindReply, Payload: []byte("ok")}, nil
	})
	start := time.Now()
	m, err := c.Go(&Call{Topic: "slow", Timeout: 2 * time.Second}).Wait()
	if err != nil {
		t.Fatalf("Wait = %v, want the reply", err)
	}
	if string(m.Payload) != "ok" {
		t.Fatalf("reply = %q, want %q", m.Payload, "ok")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Wait took %v for a reply sent after 20 ms", d)
	}
}

// A call's topic, timeout and deadline live in its pooled waiter, not in its
// Future. Each error a call settles into still names that call's topic: a
// deadline expiry, a shed reply and a remote error. A waiter recycled into the
// next call keeps nothing of the call before.
func TestFutureErrorsNameTheirCall(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(1000, 0))
	block := make(chan struct{})
	defer close(block)
	s, c := newPair(t, ServerOptions{}, CallerOptions{Clock: clock})
	s.Handle("stall", func(req *wire.Message) (*wire.Message, error) {
		<-block
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	s.Handle("shed", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindShed, Priority: LaneBulk.priority()}, nil
	})
	s.Handle("fail", func(req *wire.Message) (*wire.Message, error) {
		return nil, errors.New("boom")
	})

	fut := c.Go(&Call{Topic: "stall", Timeout: 1500 * time.Millisecond})
	clock.Advance(2 * time.Second)
	if _, err := fut.Wait(); !errors.Is(err, ErrTimeout) || !strings.HasSuffix(err.Error(), ": stall after 1.5s") {
		t.Fatalf("expired Wait = %v, want ErrTimeout naming stall after 1.5s", err)
	}
	_, err := c.Go(&Call{Topic: "shed", Timeout: NoTimeout}).Wait()
	if shed, ok := err.(*ShedError); !ok || shed.Topic != "shed" || shed.Lane != LaneBulk {
		t.Fatalf("shed Wait = %#v, want a ShedError for shed on the bulk lane", err)
	}
	_, err = c.Go(&Call{Topic: "fail", Timeout: NoTimeout}).Wait()
	if re, ok := IsRemote(err); !ok || re.Topic != "fail" || re.Msg != "boom" {
		t.Fatalf("failed Wait = %#v, want a RemoteError for fail", err)
	}

	for i := 0; i < 8; i++ {
		fut := c.Go(&Call{Topic: "shed", Timeout: NoTimeout})
		if w := fut.w; w.id == 0 || w.topic != "shed" || w.timeout != 0 || !w.start.Equal(clock.Now()) {
			t.Fatalf("call %d: waiter holds id %d, topic %q, timeout %v, start %v; want an id, shed, none and now", i, w.id, w.topic, w.timeout, w.start)
		}
		_, _ = fut.Wait()
	}
	w := c.getWaiter()
	w.id, w.gen, w.topic, w.timeout, w.start = 9, 7, "stall", time.Second, clock.Now()
	c.putWaiter(w)
	if w.id != 0 || w.gen != 0 || w.topic != "" || w.timeout != 0 || !w.start.IsZero() {
		t.Fatalf("pooled waiter keeps id %d, gen %d, topic %q, timeout %v, start %v", w.id, w.gen, w.topic, w.timeout, w.start)
	}
}

// A reply that is already buffered when Wait starts is returned without
// arming a deadline timer — and, as before, even when the deadline has
// passed meanwhile.
func TestFutureWaitReplyAlreadyThere(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(1000, 0))
	s, c := newPair(t, ServerOptions{}, CallerOptions{Clock: clock})
	s.Handle("echo", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply, Payload: req.Payload}, nil
	})
	for name, advance := range map[string]time.Duration{"before deadline": 0, "past deadline": 2 * time.Second} {
		fut := c.Go(&Call{Topic: "echo", Payload: []byte(name), Timeout: time.Second})
		for waited := time.Duration(0); len(fut.w.ch) == 0; waited += time.Millisecond {
			if waited > 10*time.Second {
				t.Fatalf("%s: reply never reached the future", name)
			}
			time.Sleep(time.Millisecond)
		}
		clock.Advance(advance)
		timers := clock.Pending()
		m, err := fut.Wait()
		if err != nil || string(m.Payload) != name {
			t.Fatalf("%s: Wait = %v, %v, want the buffered reply", name, m, err)
		}
		if got := clock.Pending(); got != timers {
			t.Fatalf("%s: Wait left %d timers pending, was %d", name, got, timers)
		}
	}
}

// The periodic sweep resolves futures nobody waits on, so abandoned calls do
// not pin waiter-map entries until the connection dies.
func TestSweepResolvesAbandonedWaiters(t *testing.T) {
	clock := simtime.NewVirtual(time.Unix(1000, 0))
	block := make(chan struct{})
	defer close(block)
	s, c := newPair(t, ServerOptions{}, CallerOptions{Clock: clock})
	s.Handle("stall", func(req *wire.Message) (*wire.Message, error) {
		<-block
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	fut := c.Go(&Call{Topic: "stall", Timeout: time.Second})
	clock.Advance(2 * time.Second)

	// White-box: trigger the sweep directly rather than issuing
	// sweepInterval more calls.
	c.mu.Lock()
	c.sweepLocked(clock.Now())
	pending := len(c.waiters)
	c.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d waiters survive the sweep, want 0", pending)
	}
	if _, err := fut.Wait(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("swept future Wait = %v, want ErrTimeout", err)
	}
}

// nullTransport is a sink: Send accepts and discards (after the call ends
// the message must not be retained — mirroring real transports), Recv blocks
// until Close.
type nullTransport struct{}

type nullConn struct {
	closed chan struct{}
	once   sync.Once
}

func (nullTransport) Name() string { return "null" }
func (nullTransport) Listen(addr string) (transport.Listener, error) {
	return nil, errors.New("null: no listen")
}
func (nullTransport) Dial(addr string) (transport.Conn, error) {
	return &nullConn{closed: make(chan struct{})}, nil
}
func (nullTransport) Close() error { return nil }

func (c *nullConn) Send(m *wire.Message) error { return nil }
func (c *nullConn) Recv() (*wire.Message, error) {
	<-c.closed
	return nil, transport.ErrClosed
}
func (c *nullConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}
func (c *nullConn) LocalAddr() string  { return "null" }
func (c *nullConn) RemoteAddr() string { return "null" }

// The committed zero-alloc guarantee: a steady-state one-way call (tracing
// and metrics off) performs zero allocations end to end in the endpoint
// layer — pooled request envelope, no waiter, shared resolved future.
func TestOneWayGoZeroAlloc(t *testing.T) {
	c, err := NewCaller(nullTransport{}, "sink", CallerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	call := &Call{Topic: "ingest", Payload: make([]byte, 64), OneWay: true, Timeout: NoTimeout}
	for i := 0; i < 16; i++ { // warm the pools
		if _, err := c.Go(call).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if _, err := c.Go(call).Wait(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("one-way Go allocates %.1f allocs/op in steady state, want 0", allocs)
	}
}

// Futures born resolved never change, so Wait and Done read them without the
// mutex: every one-way sender in the process shares resolvedFuture and must
// not queue on its lock. The test holds both locks; a Wait or Done that
// wanted one would hang.
func TestWaitOnBornResolvedFutureTakesNoLock(t *testing.T) {
	c, err := NewCaller(nullTransport{}, "sink", CallerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	failed := failedFuture(ErrClosed)
	resolvedFuture.mu.Lock()
	defer resolvedFuture.mu.Unlock()
	failed.mu.Lock()
	defer failed.mu.Unlock()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call := &Call{Topic: "ingest", OneWay: true} // Go resolves the lane into it
			for i := 0; i < 200; i++ {
				fut := c.Go(call)
				if m, err := fut.Wait(); m != nil || err != nil {
					t.Errorf("one-way future: Wait = %v, %v", m, err)
					return
				}
				if _, err := failed.Wait(); !errors.Is(err, ErrClosed) {
					t.Errorf("failed future: Wait = %v", err)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait on a future born resolved blocked on its mutex")
	}
}

// With tracing and metrics interceptors enabled the call path may allocate,
// but only within a small fixed budget — this pins the interceptor overhead
// so it cannot silently grow.
func TestCallAllocBudgetWithInterceptorsOn(t *testing.T) {
	reg := obs.NewRegistry()
	s, c := newPair(t,
		ServerOptions{Name: "srv"},
		CallerOptions{
			Timeout: 5 * time.Second,
			Interceptors: []ClientInterceptor{
				WithMetrics(reg, "bench"),
				WithTracing(nil, "bench"),
			},
		})
	s.Handle("echo", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply, Payload: req.Payload}, nil
	})
	call := &Call{Topic: "echo", Payload: make([]byte, 64)}
	for i := 0; i < 8; i++ {
		if _, err := c.Do(call); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 80 // full mem-transport roundtrip: clones, reply, channels
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Do(call); err != nil {
			t.Fatal(err)
		}
	}); allocs > budget {
		t.Fatalf("instrumented call path allocates %.1f allocs/op, budget %d", allocs, budget)
	}
}
