package mq

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ndsm/internal/simtime"
	"ndsm/internal/transport"
)

func fixture(t *testing.T, maxDepth int) (*Broker, *Client) {
	t.Helper()
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	l, err := tr.Listen("mq")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(l, maxDepth, nil)
	c, err := Dial(transport.NewMem(fabric), "mq", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		_ = b.Close()
		_ = tr.Close()
	})
	return b, c
}

func TestPushPopFIFO(t *testing.T) {
	_, c := fixture(t, 0)
	for i := 0; i < 5; i++ {
		if err := c.Push("jobs", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		got, err := c.Pop("jobs", 0)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("pop %d = %v, want %d", i, got, i)
		}
	}
}

func TestPopEmptyImmediate(t *testing.T) {
	_, c := fixture(t, 0)
	if _, err := c.Pop("empty", 0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestPopLongPollTimesOut(t *testing.T) {
	_, c := fixture(t, 0)
	start := time.Now()
	_, err := c.Pop("empty", 50*time.Millisecond)
	if !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("long poll returned too early")
	}
}

func TestPopLongPollWakesOnPush(t *testing.T) {
	_, c := fixture(t, 0)
	c2, err := Dial(transport.NewMem(transport.NewFabric()), "mq", nil)
	if err == nil {
		_ = c2.Close()
		t.Fatal("expected isolated fabric dial to fail") // sanity of fixture
	}

	got := make(chan []byte, 1)
	errCh := make(chan error, 1)
	go func() {
		data, err := c.Pop("wake", 5*time.Second)
		if err != nil {
			errCh <- err
			return
		}
		got <- data
	}()
	time.Sleep(20 * time.Millisecond) // let the pop block
	if err := c.Push("wake", []byte("ding")); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-got:
		if string(data) != "ding" {
			t.Fatalf("got %q", data)
		}
	case err := <-errCh:
		t.Fatalf("pop failed: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("blocked pop never woke")
	}
}

// A pop that gives up must take its waiter with it. Both of these pops used
// to leave theirs parked, and the next two pushes were handed to the
// abandoned buffers, acknowledged, and lost.
func TestPushAfterTimedOutPopIsKept(t *testing.T) {
	b, c := fixture(t, 0)
	for _, wait := range []time.Duration{0, 10 * time.Millisecond} {
		if _, err := c.Pop("q", wait); !errors.Is(err, ErrEmpty) {
			t.Fatalf("pop waiting %v on an empty queue: err = %v, want ErrEmpty", wait, err)
		}
	}
	for _, item := range []string{"x", "y"} {
		if err := c.Push("q", []byte(item)); err != nil {
			t.Fatal(err)
		}
	}
	if n := depth(b, "q"); n != 2 {
		t.Fatalf("depth after two acknowledged pushes = %d, want 2", n)
	}
	for _, want := range []string{"x", "y"} {
		if got, err := c.Pop("q", 0); err != nil || string(got) != want {
			t.Fatalf("pop = %q, %v, want %q", got, err, want)
		}
	}
}

// Close must not wait out a parked pop. The broker's clock never advances,
// so a pop parked for an hour ends only when Close tells it to.
func TestCloseDoesNotWaitForParkedPop(t *testing.T) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	t.Cleanup(func() { _ = tr.Close() })
	l, err := tr.Listen("mq")
	if err != nil {
		t.Fatal(err)
	}
	clock := simtime.NewVirtual(time.Unix(0, 0))
	b := NewBroker(l, 0, clock)
	c, err := Dial(transport.NewMem(fabric), "mq", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	popped := make(chan error, 1)
	go func() {
		_, err := c.Pop("q", time.Hour)
		popped <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); clock.Pending() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("pop never parked")
		}
	}
	closed := make(chan struct{})
	go func() {
		_ = b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting on a parked pop after 5 s")
	}
	select {
	case err := <-popped:
		if err == nil {
			t.Fatal("pop on a closed broker returned an item")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked pop never returned after Close")
	}
}

func TestQueueFull(t *testing.T) {
	_, c := fixture(t, 2)
	if err := c.Push("q", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Push("q", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := c.Push("q", []byte("3")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestQueuesAreIndependent(t *testing.T) {
	_, c := fixture(t, 0)
	if err := c.Push("a", []byte("for-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pop("b", 0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("queue b should be empty: %v", err)
	}
	got, err := c.Pop("a", 0)
	if err != nil || string(got) != "for-a" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestMultipleConsumersEachGetOne(t *testing.T) {
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	t.Cleanup(func() { _ = tr.Close() })
	l, err := tr.Listen("mq")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(l, 0, nil)
	t.Cleanup(func() { _ = b.Close() })

	const consumers = 4
	var clients []*Client
	for i := 0; i < consumers; i++ {
		c, err := Dial(transport.NewMem(fabric), "mq", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		clients = append(clients, c)
	}

	var mu sync.Mutex
	seen := map[string]int{}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			data, err := c.Pop("work", 5*time.Second)
			if err != nil {
				t.Errorf("pop: %v", err)
				return
			}
			mu.Lock()
			seen[string(data)]++
			mu.Unlock()
		}(c)
	}
	time.Sleep(20 * time.Millisecond)
	producer, err := Dial(transport.NewMem(fabric), "mq", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = producer.Close() })
	for i := 0; i < consumers; i++ {
		if err := producer.Push("work", []byte(fmt.Sprintf("item-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != consumers {
		t.Fatalf("items duplicated or lost: %v", seen)
	}
	for item, count := range seen {
		if count != 1 {
			t.Fatalf("item %s delivered %d times", item, count)
		}
	}
}

func TestClientClosed(t *testing.T) {
	_, c := fixture(t, 0)
	_ = c.Close()
	if err := c.Push("q", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	_ = c.Close()
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial(transport.NewMem(transport.NewFabric()), "nowhere", nil); err == nil {
		t.Fatal("dial to nowhere succeeded")
	}
}

// TestPushAsyncPipelined is the reason Broker is not an endpoint.Server: that
// server gives every request a goroutine of its own, so twenty pipelined
// pushes would be enqueued in whatever order the goroutines ran (the port was
// tried: "pop 0 = [19]"). The broker's read loop enqueues inline, in
// connection order.
func TestPushAsyncPipelined(t *testing.T) {
	_, c := fixture(t, 0)
	const n = 20
	handles := make([]*PushHandle, n)
	for i := range handles {
		handles[i] = c.PushAsync("jobs", []byte{byte(i)})
	}
	for i, h := range handles {
		if err := h.Wait(); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	// Pipelined pushes from one goroutine stay FIFO: one ordered connection,
	// broker enqueues inline.
	for i := 0; i < n; i++ {
		got, err := c.Pop("jobs", 0)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("pop %d = %v", i, got)
		}
	}
}

func TestPushAsyncQueueFull(t *testing.T) {
	_, c := fixture(t, 1)
	if err := c.PushAsync("q", []byte("a")).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := c.PushAsync("q", []byte("b")).Wait(); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

// Close with a pop parked for an hour on the real clock must return, and
// every goroutine the broker and its client started must end.
func TestCloseWithParkedPopLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	fabric := transport.NewFabric()
	tr := transport.NewMem(fabric)
	l, err := tr.Listen("mq")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(l, 0, nil)
	c, err := Dial(transport.NewMem(fabric), "mq", nil)
	if err != nil {
		t.Fatal(err)
	}
	popped := make(chan error, 1)
	go func() {
		_, err := c.Pop("q", time.Hour)
		popped <- err
	}()
	parked := func() bool {
		q := b.queue("q")
		q.mu.Lock()
		defer q.mu.Unlock()
		return len(q.waiters) > 0
	}
	for deadline := time.Now().Add(5 * time.Second); !parked(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("pop never parked")
		}
	}
	closed := make(chan struct{})
	go func() {
		_ = b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting on a parked pop after 5 s")
	}
	if err := <-popped; err == nil {
		t.Fatal("pop on a closed broker returned an item")
	}
	_ = c.Close()
	_ = tr.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before NewBroker", runtime.NumGoroutine(), before)
		}
	}
}

// A pop that a push answers early must not leave its deadline timer behind:
// under go 1.22 semantics an unstopped timer, and the channel it fires on,
// stay in the heap until it fires, here an hour later.
func TestAnsweredPopLeavesNoTimer(t *testing.T) {
	const n = 4000
	q := &queue{max: DefaultMaxDepth}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	for i := 0; i < n; i++ {
		got := make(chan []byte)
		go func() {
			item, _ := q.pop(simtime.Real{}, time.Hour, nil)
			got <- item
		}()
		for {
			q.mu.Lock()
			parked := len(q.waiters) > 0
			q.mu.Unlock()
			if parked {
				break
			}
			runtime.Gosched()
		}
		if err := q.push([]byte{1}); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	after := live()
	t.Logf("live heap %d -> %d bytes over %d answered pops", before, after, n)
	if grown := int64(after) - int64(before); grown > n*32 {
		t.Fatalf("live heap grew %d bytes over %d answered pops (%d a pop): their timers are still armed", grown, n, grown/n)
	}
}

// depth is the backlog of b's queue name.
func depth(b *Broker, name string) int {
	q := b.queue(name)
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}
