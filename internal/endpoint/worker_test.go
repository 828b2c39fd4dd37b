package endpoint

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndsm/internal/obs"
	"ndsm/internal/simtime"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

func echoHandler(req *wire.Message) (*wire.Message, error) {
	return &wire.Message{Kind: wire.KindReply, Payload: req.Payload}, nil
}

// Reuse must not turn the handler goroutines into a pool with a size: more
// handlers than the parked bound block at once, the connection they came in
// on still answers, and afterwards the surplus workers exit.
func TestHeldHandlersBeyondParkedBound(t *testing.T) {
	const held = maxParked + 50
	s, c := newPair(t, ServerOptions{}, CallerOptions{Timeout: 30 * time.Second})
	var inside atomic.Int32
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	s.Handle("hold", func(req *wire.Message) (*wire.Message, error) {
		inside.Add(1)
		<-release
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	s.Handle("echo", echoHandler)
	if _, err := c.Do(&Call{Topic: "echo"}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	futs := make([]*Future, held)
	for i := range futs {
		futs[i] = c.Go(&Call{Topic: "hold"})
	}
	waitUntil(t, "every held handler to be entered", func() bool { return inside.Load() == held })
	if m, err := c.Do(&Call{Topic: "echo", Payload: []byte("still here")}); err != nil || string(m.Payload) != "still here" {
		t.Fatalf("request beside %d held handlers: %v, %v", held, m, err)
	}
	unblock()
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("held call %d: %v", i, err)
		}
	}
	// held+1 workers exist and maxParked may stay: the rest find the set full
	// and exit (the count passes the bound for the moment one takes to see so).
	waitUntil(t, "the parked set to settle at its bound and the surplus workers to exit", func() bool {
		return s.parked.Load() == maxParked && runtime.NumGoroutine() <= before+maxParked
	})
}

// Sequential traffic runs on the goroutines it warmed up: ten thousand
// requests start at most a handful (a worker that has sent its reply may not
// have parked yet when the next request arrives on another processor).
func TestSequentialRequestsReuseWorkers(t *testing.T) {
	s, c := newPair(t, ServerOptions{}, CallerOptions{})
	s.Handle("echo", echoHandler)
	call := &Call{Topic: "echo", Payload: make([]byte, 64)}
	for i := 0; i < 100; i++ {
		if _, err := c.Do(call); err != nil {
			t.Fatal(err)
		}
	}
	started, goroutines := s.started.Load(), runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		if _, err := c.Do(call); err != nil {
			t.Fatal(err)
		}
	}
	grew := s.started.Load() - started
	if grew > 8 {
		t.Fatalf("10000 sequential requests started %d goroutines", grew)
	}
	if n := runtime.NumGoroutine(); n > goroutines+int(grew) {
		t.Fatalf("goroutines %d → %d over 10000 sequential requests (%d workers started)", goroutines, n, grew)
	}
}

// Close owns the parked workers: when it returns they are gone. The requests
// come over a bare connection so no caller goroutine clouds the count.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	tr := transport.NewMem(transport.NewFabric())
	l, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	s := NewServer(l, ServerOptions{MaxInFlight: 64, Lanes: &LaneConfig{QueueDepth: 8}})
	s.Handle("echo", echoHandler)
	conn, err := tr.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for round := 0; round < 4; round++ {
		for i := 1; i <= n; i++ {
			if err := conn.Send(&wire.Message{ID: uint64(i), Kind: wire.KindRequest, Topic: "echo"}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if _, err := conn.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.started.Load() == 0 {
		t.Fatal("no worker was started")
	}
	_ = conn.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A goroutine is counted until it has finished exiting, a few
	// instructions after the wg.Done that Close waited for. Yield to those,
	// without sleeping, until a deadline: a fixed thousand yields ran out
	// about once in twenty runs of -race -cpu 1,2.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before NewServer", runtime.NumGoroutine(), before)
		}
	}
	if n := s.parked.Load(); n != 0 {
		t.Fatalf("%d workers still parked after Close", n)
	}
}

// The admitter reaches spawn from three places (offer, release's promotion,
// setQuota's promotion); through all of them a 4-slot server runs at most 4
// handlers at once and gets every token back.
func TestLanesBoundConcurrencyOverReusedWorkers(t *testing.T) {
	const slots = 4
	reg := obs.NewRegistry()
	s, c := newPair(t, ServerOptions{
		Name:        "srv",
		MaxInFlight: slots,
		Lanes:       &LaneConfig{Quota: map[Lane]int{LaneControl: 1}, QueueDepth: 8},
		Metrics:     reg,
	}, CallerOptions{Timeout: 30 * time.Second})
	var running, peak, served atomic.Int32
	s.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		running.Add(-1)
		served.Add(1)
		return &wire.Message{Kind: wire.KindReply}, nil
	})

	var wg sync.WaitGroup
	flood := func(lane Lane, calls int) {
		defer wg.Done()
		for i := 0; i < calls; i++ {
			if _, err := c.Do(&Call{Topic: "work", Lane: lane}); err != nil && !IsShed(err) {
				t.Errorf("%s call %d: %v", lane, i, err)
				return
			}
		}
	}
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go flood(LaneBulk, 50)
	}
	wg.Add(2)
	go flood(LaneControl, 50)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			s.SetLaneQuota(LaneControl, 1+i%2)
			time.Sleep(100 * time.Microsecond)
		}
		s.SetLaneQuota(LaneControl, 1)
	}()
	wg.Wait()

	// SetLaneQuota lets slots lent before a change drain, so the bound may be
	// passed by the widened amount (one) while it flips; never by more.
	if p := peak.Load(); p > slots+1 {
		t.Fatalf("%d handlers ran at once on %d slots", p, slots)
	}
	if served.Load() == 0 || reg.Counter("srv.shed").Value() == 0 {
		t.Fatalf("served %d, shed %d: the flood did not overload the server", served.Load(), reg.Counter("srv.shed").Value())
	}
	// A reply is sent before its token is released.
	waitUntil(t, "every admit token to be released", func() bool {
		s.adm.mu.Lock()
		defer s.adm.mu.Unlock()
		held := s.adm.shared
		for _, n := range s.adm.reserved {
			held += n
		}
		return held == 0
	})
	if s.started.Load() > 4*slots {
		t.Fatalf("%d workers started for %d slots", s.started.Load(), slots)
	}
}

// Callers hammering a server that closes under them: whatever was admitted
// as Close began runs or is dropped, nothing hangs, and nothing panics (a
// request handed to a worker that had chosen to exit would hang its caller; a
// wg.Add racing Close's Wait panics).
func TestCloseDuringBurst(t *testing.T) {
	const callers = 64
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	for round := 0; round < rounds; round++ {
		sopts := ServerOptions{}
		if round%2 == 1 {
			// Lanes with a queue: requests are promoted inside release, by a
			// worker on its way to park.
			sopts = ServerOptions{MaxInFlight: 4, Lanes: &LaneConfig{QueueDepth: callers}}
		}
		tr := transport.NewMem(transport.NewFabric())
		l, err := tr.Listen("srv")
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(l, sopts)
		s.Handle("echo", echoHandler)
		conns := make([]*Caller, 4)
		for i := range conns {
			if conns[i], err = NewCaller(tr, "srv", CallerOptions{Timeout: 20 * time.Second}); err != nil {
				t.Fatal(err)
			}
		}
		var answered atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(c *Caller) {
				defer wg.Done()
				for {
					_, err := c.Do(&Call{Topic: "echo", Payload: []byte("x")})
					switch {
					case err == nil || IsShed(err):
						answered.Add(1)
					case errors.Is(err, ErrUnavailable) || errors.Is(err, ErrClosed):
						return
					default:
						t.Errorf("round %d: %v", round, err)
						return
					}
				}
			}(conns[i%len(conns)])
		}
		for answered.Load() < callers {
			runtime.Gosched()
		}
		closed := make(chan struct{})
		go func() {
			_ = s.Close()
			wg.Wait()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(15 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("round %d: Close or a caller hung\n%s", round, buf[:runtime.Stack(buf, true)])
		}
		for _, c := range conns {
			_ = c.Close()
		}
		if n := s.parked.Load(); n != 0 {
			t.Fatalf("round %d: %d workers parked after Close", round, n)
		}
	}
}

// One mem round trip allocates three objects, counted across both sides
// (AllocsPerRun reads the process's malloc count): the handler's reply (built
// here with a literal, not NewReply), and the shell and the payload of the
// clone the caller keeps. A bare endpoint caller keeps the whole reply Do
// returns, so nothing gives its shell back; core, rpc and pub/sub take the
// payload and recycle the shell. The request's clone is the one the server
// recycled the call before. It was 5 before the server recycled, 6 with a
// Future on the heap, 7 with a goroutine per request too.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	s, c := newPair(t, ServerOptions{Name: "srv"}, CallerOptions{Timeout: NoTimeout})
	s.Handle("echo", echoHandler)
	call := &Call{Topic: "echo", Payload: make([]byte, 64)}
	for i := 0; i < 100; i++ {
		if _, err := c.Do(call); err != nil {
			t.Fatal(err)
		}
	}
	const want = 3
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := c.Do(call); err != nil {
			t.Fatal(err)
		}
	}); allocs > want {
		t.Fatalf("mem round trip allocates %.2f objects, want at most %d", allocs, want)
	}
}

// The same round trip on TCP loopback, small and large: the handler's reply,
// and the shell and the payload the caller's reader decodes the reply into —
// a bare endpoint caller keeps the reply, shell and all, as above. The
// server's decode costs nothing: it draws the request it recycled the call
// before, whose buffer already has the size.
func TestRoundTripAllocsTCP(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	for _, size := range []int{64, 16 << 10} {
		s, c := newPairTCP(t)
		s.Handle("echo", echoHandler)
		call := &Call{Topic: "echo", Payload: make([]byte, size)}
		for i := 0; i < 100; i++ {
			if _, err := c.Do(call); err != nil {
				t.Fatal(err)
			}
		}
		const want = 3
		if allocs := testing.AllocsPerRun(1000, func() {
			if _, err := c.Do(call); err != nil {
				t.Fatal(err)
			}
		}); allocs > want {
			t.Errorf("tcp round trip of %d bytes allocates %.2f objects, want at most %d", size, allocs, want)
		}
	}
}

// The mem round trip again, through the lane-aware admitter on an
// uncontended server, with a payload-less reply and a Call built for each
// request: two objects. The handler's reply (a literal) and the shell of the
// reply's clone, which the caller keeps, as above. The request's clone takes
// the shell and payload the server recycled the request before, and its lane
// rides in Priority, so it copies no header map (that map and its bucket made
// four). The Call stays on the stack: the caller has no interceptors, so Do
// makes the round trip directly.
func TestLaneRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	s, c := newPair(t, ServerOptions{
		Name:        "srv",
		MaxInFlight: 64,
		Metrics:     obs.NewRegistry(),
		Lanes:       &LaneConfig{Quota: map[Lane]int{LaneControl: 8}},
	}, CallerOptions{Lane: LaneControl})
	s.Handle("work", func(*wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	payload := make([]byte, 64)
	call := func() {
		if _, err := c.Do(&Call{Topic: "work", Payload: payload, Timeout: NoTimeout}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call()
	}
	const want = 2
	if allocs := testing.AllocsPerRun(1000, call); allocs > want {
		t.Fatalf("lane-aware mem round trip allocates %.2f objects, want at most %d", allocs, want)
	}
}

// A shed round trip on mem allocates nothing. The ShedError it returns is the
// one the caller made at the first shed of that topic and lane. The server's
// reject envelope comes from msgPool and carries its reason's bytes, built
// once; it is a shed by its kind and names its lane in Priority, so its clone
// copies no header map (a map and bucket made three, and a decode on TCP built
// the same map). The caller recycles the reject it decoded, and the request's
// clone takes back the request the server recycled.
func TestShedRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	s, c := newPair(t, ServerOptions{Name: "srv", MaxInFlight: 1, Metrics: obs.NewRegistry()}, CallerOptions{Timeout: NoTimeout})
	entered, release := make(chan struct{}), make(chan struct{})
	s.Handle("hold", func(*wire.Message) (*wire.Message, error) {
		close(entered)
		<-release
		return nil, nil
	})
	held := c.Go(&Call{Topic: "hold"})
	<-entered
	t.Cleanup(func() { // before newPair's: Close waits for the held handler
		close(release)
		_, _ = held.Wait()
	})
	call := &Call{Topic: "work", Payload: make([]byte, 64)}
	shed := func() {
		if _, err := c.Do(call); !IsShed(err) {
			t.Fatalf("got %v, want a shed", err)
		}
	}
	for i := 0; i < 100; i++ {
		shed()
	}
	const want = 0
	if allocs := testing.AllocsPerRun(1000, shed); allocs > want {
		t.Fatalf("shed round trip on mem allocates %.2f objects, want at most %d", allocs, want)
	}
}

// A deadline's timer dies with the call it guarded. Before, each reply left
// an armed hour-long timer behind (an unstopped time.After lives until it
// fires under go 1.22), ~200 B a request for the length of the timeout.
func TestFutureWaitStopsDeadlineTimer(t *testing.T) {
	s, c := newPair(t, ServerOptions{}, CallerOptions{Timeout: time.Hour})
	s.Handle("echo", echoHandler)
	call := &Call{Topic: "echo"}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.Do(call); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	run(1000)
	before := liveHeap()
	run(20000)
	const bound = 512 << 10
	if after := liveHeap(); after > before+bound {
		t.Fatalf("live heap grew %d KiB over 20000 calls with an hour's deadline, bound %d KiB", (after-before)>>10, bound>>10)
	}
}

// A Wait that has to block arms its deadline on the waiter's own timer, made
// once and reset for every later call, so after warm-up a round trip with a
// deadline costs what one without it does: here the shell of the reply's
// clone, which the caller keeps (NewReply's envelope and the request's clone
// come from pools). A timer made per Wait was two objects more. Every form of
// the wall clock takes that one path: a pointer to simtime.Real, and a clock
// that embeds it, as a wrapper that counts reads does, cost what simtime.Real
// does (4 objects each while Wait asked for the clock's type).
func TestWaitDeadlineTimerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	type wrapped struct{ simtime.Real }
	for _, clock := range []struct {
		name string
		simtime.Clock
	}{
		{"Real", simtime.Real{}},
		{"pointer to Real", &simtime.Real{}},
		{"wrapper of Real", &wrapped{}},
	} {
		t.Run(clock.name, func(t *testing.T) {
			s, c := newPair(t, ServerOptions{Name: "srv"}, CallerOptions{Clock: clock.Clock, Timeout: time.Hour})
			s.Handle("slow", func(*wire.Message) (*wire.Message, error) {
				time.Sleep(50 * time.Microsecond) // the caller is in Wait by now, its deadline armed
				return NewReply(nil), nil
			})
			call := &Call{Topic: "slow"}
			do := func() {
				if _, err := c.Do(call); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				do()
			}
			const want = 1
			if allocs := testing.AllocsPerRun(200, do); allocs > want {
				t.Fatalf("round trip with an armed deadline allocates %.2f objects, want at most %d", allocs, want)
			}
		})
	}
}

// A timer that fired may still be sending its tick when Stop returns, so
// simtime's wall-clock timer drops it rather than drain it, and the next arming
// makes a fresh one: a tick that lands on a reused timer would end the
// waiter's next Wait at once. A timer Stop caught in time is kept. A kept
// timer ticks on the channel it had, a fresh one on a new channel. The loop
// arms timers that fire about when they are stopped, the race a reply
// arriving at its deadline runs.
func TestFiredTimerIsNotReused(t *testing.T) {
	var w waiter
	clock := simtime.Real{}
	in := func(d time.Duration) time.Time { return time.Now().Add(d) }
	kept := w.arm(clock, in(time.Hour))
	w.timer.Stop()
	if w.arm(clock, in(time.Hour)) != kept {
		t.Fatal("a timer stopped before it fired was dropped; the next Wait would make another")
	}
	w.timer.Stop()
	fired := w.arm(clock, in(time.Millisecond))
	time.Sleep(5 * time.Millisecond) // due, and nobody receives the tick
	w.timer.Stop()
	if w.arm(clock, in(time.Hour)) == fired {
		t.Fatal("a fired timer was kept for reuse")
	}
	stale := func(i int) {
		select {
		case <-w.timer.C():
			t.Fatalf("iteration %d: a timer armed for an hour held a tick of an earlier arming", i)
		default:
		}
	}
	for i := 0; i < 10000; i++ {
		stale(i)
		d := time.Duration(i%16) * time.Microsecond
		w.arm(clock, in(d))
		for start := time.Now(); time.Since(start) < d; {
		}
		w.timer.Stop()
		w.arm(clock, in(time.Hour))
	}
	time.Sleep(time.Millisecond)
	stale(10000)
	w.timer.Stop()
}

// BenchmarkEndpointPipelinedTCP keeps a window of 32 Caller.Go calls in flight
// against an echo Server on loopback: the shape of the load benchmark's
// capacity phase, small enough to profile in seconds
// (go test -run '^$' -bench EndpointPipelinedTCP -cpu 1 -cpuprofile ...). It
// is for finding where the time goes, not evidence for a performance claim:
// claims are measured with benchmark/run.sh.
func BenchmarkEndpointPipelinedTCP(b *testing.B) {
	for _, size := range []int{64, 16 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			const window = 32
			s, c := newPairTCP(b)
			s.Handle("echo", echoHandler)
			call := &Call{Topic: "echo", Payload: make([]byte, size)}
			var futs [window]*Future
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if f := futs[i%window]; f != nil {
					if _, err := f.Wait(); err != nil {
						b.Fatal(err)
					}
				}
				futs[i%window] = c.Go(call)
			}
			for _, f := range futs {
				if f != nil {
					if _, err := f.Wait(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// newPairTCP is a server and a caller to it on TCP loopback.
func newPairTCP(t testing.TB) (*Server, *Caller) {
	t.Helper()
	tr := transport.NewTCP(nil)
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(l, ServerOptions{Name: "srv"})
	c, err := NewCaller(tr, s.Addr(), CallerOptions{Timeout: NoTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		_ = s.Close()
		_ = tr.Close()
	})
	return s, c
}

// A call that settles without arming a timer (Wait found its reply) leaves
// the waiter's stopped timer alone. Stop on a stopped timer reports false,
// as on a fired one, so a waiter stops its timer only when it armed it:
// stopping it regardless drops it, and the next armed Wait makes a new one
// (6 objects here, not 3). The 3 are the async call's Future and the two
// reply shells the caller keeps.
func TestUnarmedSettleKeepsTimerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	s, c := newPair(t, ServerOptions{Name: "srv"}, CallerOptions{Timeout: time.Hour})
	s.Handle("slow", func(*wire.Message) (*wire.Message, error) {
		time.Sleep(50 * time.Microsecond) // the caller is in Wait by now, its deadline armed
		return NewReply(nil), nil
	})
	s.Handle("fast", func(*wire.Message) (*wire.Message, error) { return NewReply(nil), nil })
	slow, fast := &Call{Topic: "slow"}, &Call{Topic: "fast"}
	do := func() {
		if _, err := c.Do(slow); err != nil {
			t.Fatal(err)
		}
		f := c.Go(fast)
		for len(f.w.ch) == 0 { // the reply is buffered before Wait looks
			runtime.Gosched()
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		do()
	}
	const want = 3
	if allocs := testing.AllocsPerRun(200, do); allocs > want {
		t.Fatalf("an armed round trip after a settled async call allocates %.2f objects, want at most %d", allocs, want)
	}
}
