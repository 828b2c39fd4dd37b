package tuplespace

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ndsm/internal/transport"
)

func TestTupleMatches(t *testing.T) {
	tests := []struct {
		tuple, template Tuple
		want            bool
	}{
		{Tuple{"a", "b"}, Tuple{"a", "b"}, true},
		{Tuple{"a", "b"}, Tuple{"a", "*"}, true},
		{Tuple{"a", "b"}, Tuple{"*", "*"}, true},
		{Tuple{"a", "b"}, Tuple{"a", "c"}, false},
		{Tuple{"a", "b"}, Tuple{"a"}, false},
		{Tuple{"a"}, Tuple{"a", "*"}, false},
		{Tuple{}, Tuple{}, true},
	}
	for _, tt := range tests {
		if got := tt.tuple.Matches(tt.template); got != tt.want {
			t.Errorf("%v matches %v = %v", tt.tuple, tt.template, got)
		}
	}
}

func TestOutRdPInP(t *testing.T) {
	s := NewSpace(nil)
	s.Out(Tuple{"temp", "room1", "22.5"})
	if stored(s) != 1 {
		t.Fatalf("stored = %d", stored(s))
	}
	got, ok := s.RdP(Tuple{"temp", "*", "*"})
	if !ok || got[2] != "22.5" {
		t.Fatalf("RdP = %v, %v", got, ok)
	}
	if stored(s) != 1 {
		t.Fatal("RdP removed the tuple")
	}
	got, ok = s.InP(Tuple{"temp", "room1", "*"})
	if !ok || got[1] != "room1" {
		t.Fatalf("InP = %v, %v", got, ok)
	}
	if stored(s) != 0 {
		t.Fatal("InP did not remove the tuple")
	}
	if _, ok := s.InP(Tuple{"temp", "*", "*"}); ok {
		t.Fatal("second InP matched")
	}
}

func TestRdPReturnsCopy(t *testing.T) {
	s := NewSpace(nil)
	s.Out(Tuple{"k", "v"})
	got, _ := s.RdP(Tuple{"k", "*"})
	got[1] = "tampered"
	again, _ := s.RdP(Tuple{"k", "*"})
	if again[1] != "v" {
		t.Fatal("RdP exposed internal tuple")
	}
}

func TestOutClonesInput(t *testing.T) {
	s := NewSpace(nil)
	in := Tuple{"k", "v"}
	s.Out(in)
	in[1] = "tampered"
	got, _ := s.RdP(Tuple{"k", "*"})
	if got[1] != "v" {
		t.Fatal("Out shared caller's tuple")
	}
}

func TestInBlocksUntilOut(t *testing.T) {
	s := NewSpace(nil)
	got := make(chan Tuple, 1)
	errCh := make(chan error, 1)
	go func() {
		tp, err := s.blocking(Tuple{"job", "*"}, true, 5*time.Second)
		if err != nil {
			errCh <- err
			return
		}
		got <- tp
	}()
	time.Sleep(20 * time.Millisecond)
	s.Out(Tuple{"job", "42"})
	select {
	case tp := <-got:
		if tp[1] != "42" {
			t.Fatalf("got %v", tp)
		}
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("In never woke")
	}
	if stored(s) != 0 {
		t.Fatal("consumed tuple still stored")
	}
}

func TestInTimesOut(t *testing.T) {
	s := NewSpace(nil)
	_, err := s.blocking(Tuple{"never"}, true, 30*time.Millisecond)
	if !errors.Is(err, ErrNoMatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestRdDoesNotConsume(t *testing.T) {
	s := NewSpace(nil)
	done := make(chan Tuple, 2)
	for i := 0; i < 2; i++ {
		go func() {
			tp, err := s.Rd(Tuple{"x", "*"}, 5*time.Second)
			if err == nil {
				done <- tp
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	s.Out(Tuple{"x", "1"})
	// Both blocked readers see the single tuple.
	for i := 0; i < 2; i++ {
		select {
		case tp := <-done:
			if tp[1] != "1" {
				t.Fatalf("got %v", tp)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("rd waiter starved")
		}
	}
	if stored(s) != 1 {
		t.Fatal("rd consumed the tuple")
	}
}

func TestOnlyOneInConsumes(t *testing.T) {
	s := NewSpace(nil)
	var okCount, errCount int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.blocking(Tuple{"one", "*"}, true, 200*time.Millisecond)
			mu.Lock()
			if err == nil {
				okCount++
			} else {
				errCount++
			}
			mu.Unlock()
		}()
	}
	time.Sleep(20 * time.Millisecond)
	s.Out(Tuple{"one", "only"})
	wg.Wait()
	if okCount != 1 || errCount != 3 {
		t.Fatalf("ok=%d err=%d, want 1/3", okCount, errCount)
	}
}

// Property: any tuple matches a template of the same length made of
// wildcards, and matches itself.
func TestMatchProperty(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	f := func() bool {
		n := r.Intn(6)
		tp := make(Tuple, n)
		wild := make(Tuple, n)
		for i := range tp {
			tp[i] = fmt.Sprintf("f%d", r.Intn(10))
			wild[i] = Wildcard
		}
		if !tp.Matches(tp) || !tp.Matches(wild) {
			return false
		}
		// Changing one field breaks the exact match (unless wildcarded).
		if n > 0 {
			broken := tp.clone()
			broken[0] = "different-value"
			if tp.Matches(broken) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Out then InP with the same tuple as template always retrieves it.
func TestOutInProperty(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	s := NewSpace(nil)
	f := func() bool {
		n := 1 + r.Intn(5)
		tp := make(Tuple, n)
		for i := range tp {
			tp[i] = fmt.Sprintf("v%d", r.Intn(100))
		}
		s.Out(tp)
		got, ok := s.InP(tp)
		return ok && got.Matches(tp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- remote access ---

func remoteFixture(t *testing.T) (*Server, *Client) {
	t.Helper()
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	l, err := tr.Listen("ts")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewSpace(nil), l, nil)
	cli, err := Dial(transport.NewMem(fabric), "ts", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cli.Close()
		_ = srv.Close()
		_ = tr.Close()
	})
	return srv, cli
}

func TestRemoteOutInRd(t *testing.T) {
	srv, cli := remoteFixture(t)
	if err := cli.Out(Tuple{"config", "rate", "10"}); err != nil {
		t.Fatal(err)
	}
	if stored(srv.space) != 1 {
		t.Fatal("tuple not stored server-side")
	}
	got, err := cli.Rd(Tuple{"config", "*", "*"}, 0)
	if err != nil || got[2] != "10" {
		t.Fatalf("Rd = %v, %v", got, err)
	}
	got, err = cli.In(Tuple{"config", "rate", "*"}, 0)
	if err != nil || got[2] != "10" {
		t.Fatalf("In = %v, %v", got, err)
	}
	if stored(srv.space) != 0 {
		t.Fatal("In did not consume")
	}
}

func TestRemoteNoMatch(t *testing.T) {
	_, cli := remoteFixture(t)
	if _, err := cli.In(Tuple{"nope"}, 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("err = %v", err)
	}
	if _, err := cli.Rd(Tuple{"nope"}, 30*time.Millisecond); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoteBlockingIn(t *testing.T) {
	srv, cli := remoteFixture(t)
	got := make(chan Tuple, 1)
	go func() {
		tp, err := cli.In(Tuple{"job", "*"}, 5*time.Second)
		if err == nil {
			got <- tp
		}
	}()
	time.Sleep(20 * time.Millisecond)
	srv.space.Out(Tuple{"job", "7"})
	select {
	case tp := <-got:
		if tp[1] != "7" {
			t.Fatalf("got %v", tp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("remote blocking In never woke")
	}
}

func TestRemoteTwoClientsCoordinate(t *testing.T) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	t.Cleanup(func() { _ = tr.Close() })
	l, err := tr.Listen("ts")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewSpace(nil), l, nil)
	t.Cleanup(func() { _ = srv.Close() })
	producer, err := Dial(transport.NewMem(fabric), "ts", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = producer.Close() })
	consumer, err := Dial(transport.NewMem(fabric), "ts", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = consumer.Close() })

	got := make(chan Tuple, 1)
	go func() {
		tp, err := consumer.In(Tuple{"msg", "*"}, 5*time.Second)
		if err == nil {
			got <- tp
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := producer.Out(Tuple{"msg", "hello"}); err != nil {
		t.Fatal(err)
	}
	select {
	case tp := <-got:
		if tp[1] != "hello" {
			t.Fatalf("got %v", tp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cross-client coordination failed")
	}
}

func TestRemoteClientClosed(t *testing.T) {
	_, cli := remoteFixture(t)
	_ = cli.Close()
	if err := cli.Out(Tuple{"x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	_ = cli.Close()
}

func TestRemoteDialFailure(t *testing.T) {
	if _, err := Dial(transport.NewMem(transport.NewFabric()), "nowhere", nil); err == nil {
		t.Fatal("dial to nowhere succeeded")
	}
}

func TestNotifyReceivesFutureTuples(t *testing.T) {
	s := NewSpace(nil)
	s.Out(Tuple{"pre", "1"}) // before registration: not delivered
	ch, cancel := s.NotifyTake(Tuple{"pre", "*"})
	defer cancel()
	select {
	case tp := <-ch:
		t.Fatalf("past tuple delivered: %v", tp)
	default:
	}
	s.Out(Tuple{"pre", "2"})
	select {
	case tp := <-ch:
		if tp[1] != "2" {
			t.Fatalf("got %v", tp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reaction never fired")
	}
	if _, ok := s.RdP(Tuple{"pre", "2"}); ok {
		t.Fatal("claimed tuple also stored")
	}
}

func TestNotifyCancel(t *testing.T) {
	s := NewSpace(nil)
	ch, cancel := s.NotifyTake(Tuple{"x"})
	cancel()
	cancel() // idempotent
	s.Out(Tuple{"x"})
	if _, ok := <-ch; ok {
		t.Fatal("cancelled reaction received a tuple")
	}
}

func TestNotifyTakeConsumes(t *testing.T) {
	s := NewSpace(nil)
	ch, cancel := s.NotifyTake(Tuple{"job", "*"})
	defer cancel()
	s.Out(Tuple{"job", "42"})
	select {
	case tp := <-ch:
		if tp[1] != "42" {
			t.Fatalf("got %v", tp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consuming reaction never fired")
	}
	if stored(s) != 0 {
		t.Fatal("consumed tuple still stored")
	}
}

func TestNotifyTakeSingleClaim(t *testing.T) {
	s := NewSpace(nil)
	ch1, cancel1 := s.NotifyTake(Tuple{"one", "*"})
	defer cancel1()
	ch2, cancel2 := s.NotifyTake(Tuple{"one", "*"})
	defer cancel2()
	s.Out(Tuple{"one", "only"})
	delivered := 0
	for _, ch := range []<-chan Tuple{ch1, ch2} {
		select {
		case <-ch:
			delivered++
		case <-time.After(50 * time.Millisecond):
		}
	}
	if delivered != 1 {
		t.Fatalf("delivered to %d consuming reactions, want 1", delivered)
	}
}

func TestNotifyOverflowDropsWithoutBlocking(t *testing.T) {
	s := NewSpace(nil)
	ch, cancel := s.NotifyTake(Tuple{"flood", "*"})
	defer cancel()
	for i := 0; i < notifyBuffer+10; i++ {
		s.Out(Tuple{"flood", strconv.Itoa(i)})
	}
	if got := len(ch); got != notifyBuffer {
		t.Fatalf("reaction channel holds %d tuples, want %d", got, notifyBuffer)
	}
	if first := <-ch; first[1] != "0" {
		t.Fatalf("first delivered tuple = %v, want the first written", first)
	}
	if got := stored(s); got != 10 {
		t.Fatalf("space holds %d tuples, want the 10 a full reaction passed on", got)
	}
}

// waitBlocked returns once an In or Rd is parked in the space.
func waitBlocked(t *testing.T, s *Space) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		parked := len(s.waiters)
		s.mu.Unlock()
		if parked > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no reader blocked in the space")
		}
		time.Sleep(time.Millisecond)
	}
}

// A blocked In holds only its own request: an Out on the same client
// connection is served while it waits.
func TestRemoteBlockedInDoesNotDelayOut(t *testing.T) {
	srv, cli := remoteFixture(t)
	inDone := make(chan error, 1)
	go func() {
		_, err := cli.In(Tuple{"gate", "*"}, 10*time.Second)
		inDone <- err
	}()
	waitBlocked(t, srv.space)

	outDone := make(chan error, 1)
	go func() { outDone <- cli.Out(Tuple{"other", "1"}) }()
	select {
	case err := <-outDone:
		if err != nil {
			t.Fatal(err)
		}
	case err := <-inDone:
		t.Fatalf("In returned before anything matched it: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("Out waited behind a blocked In on the same connection")
	}
	if stored(srv.space) != 1 {
		t.Fatalf("stored = %d, want the one stored tuple", stored(srv.space))
	}

	if err := cli.Out(Tuple{"gate", "open"}); err != nil {
		t.Fatal(err)
	}
	if err := <-inDone; err != nil {
		t.Fatalf("In = %v", err)
	}
}

// Server.Close waits for a blocked In no longer than the In's own wait, and
// the client's call ends instead of hanging.
func TestServerCloseWithBlockedIn(t *testing.T) {
	srv, cli := remoteFixture(t)
	const wait = 200 * time.Millisecond
	inDone := make(chan error, 1)
	go func() {
		_, err := cli.In(Tuple{"never", "*"}, wait)
		inDone <- err
	}()
	waitBlocked(t, srv.space)

	closed := make(chan struct{})
	go func() {
		_ = srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(wait + 5*time.Second):
		t.Fatal("Close outlasted the blocked In's wait")
	}
	select {
	case err := <-inDone:
		if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrNoMatch) {
			t.Fatalf("In = %v, want ErrClosed or ErrNoMatch", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client In hung after the server closed")
	}
}

// Whichever side notices the lost connection first — the demux or the send —
// the caller sees ErrClosed.
func TestOutAfterServerGone(t *testing.T) {
	srv, cli := remoteFixture(t)
	_ = srv.Close()
	for i := 0; i < 3; i++ {
		if err := cli.Out(Tuple{"x"}); !errors.Is(err, ErrClosed) {
			t.Fatalf("Out %d after server close = %v, want ErrClosed", i, err)
		}
	}
}

// stored is how many tuples s holds.
func stored(s *Space) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tuples)
}
