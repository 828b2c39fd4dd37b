package scheduler

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ndsm/internal/discovery"
	"ndsm/internal/qos"
	"ndsm/internal/simtime"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transaction"
)

var epoch = time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)

func TestPolicyString(t *testing.T) {
	if FIFO.String() != "fifo" || PriorityOrder.String() != "priority" ||
		EDF.String() != "edf" || Policy(9).String() != "policy(?)" {
		t.Fatal("policy names wrong")
	}
}

func popAll(t *testing.T, q *Queue) []Item {
	t.Helper()
	var out []Item
	for {
		it, err := q.Pop()
		if errors.Is(err, ErrEmpty) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, it)
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(FIFO)
	for i := 0; i < 3; i++ {
		q.Push(Item{Priority: uint8(i), Size: i})
	}
	got := popAll(t, q)
	if len(got) != 3 || got[0].Size != 0 || got[1].Size != 1 || got[2].Size != 2 {
		t.Fatalf("order: %+v", got)
	}
}

func TestQueuePriority(t *testing.T) {
	q := NewQueue(PriorityOrder)
	q.Push(Item{Priority: 1, Size: 1})
	q.Push(Item{Priority: 9, Size: 9})
	q.Push(Item{Priority: 5, Size: 5})
	q.Push(Item{Priority: 9, Size: 10}) // same priority: FIFO
	got := popAll(t, q)
	sizes := []int{got[0].Size, got[1].Size, got[2].Size, got[3].Size}
	want := []int{9, 10, 5, 1}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("order %v, want %v", sizes, want)
		}
	}
}

func TestQueueEDF(t *testing.T) {
	q := NewQueue(EDF)
	q.Push(Item{Size: 1}) // no deadline: last
	q.Push(Item{Deadline: epoch.Add(3 * time.Second), Size: 3})
	q.Push(Item{Deadline: epoch.Add(1 * time.Second), Size: 2})
	got := popAll(t, q)
	if got[0].Size != 2 || got[1].Size != 3 || got[2].Size != 1 {
		t.Fatalf("order: %+v", got)
	}
}

func TestQueueEmptyPop(t *testing.T) {
	q := NewQueue(FIFO)
	if _, err := q.Pop(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v", err)
	}
	if q.Len() != 0 {
		t.Fatal("Len != 0")
	}
}

func TestTokenBucketTake(t *testing.T) {
	b := NewTokenBucket(100, 50, epoch) // 100 B/s, 50 B burst
	if !b.Take(50, epoch) {
		t.Fatal("initial burst refused")
	}
	if b.Take(1, epoch) {
		t.Fatal("empty bucket granted")
	}
	// After 0.25s, 25 tokens refilled.
	if !b.Take(25, epoch.Add(250*time.Millisecond)) {
		t.Fatal("refill not granted")
	}
	if b.Take(1, epoch.Add(250*time.Millisecond)) {
		t.Fatal("over-refill granted")
	}
}

func TestTokenBucketCapacityCap(t *testing.T) {
	b := NewTokenBucket(100, 50, epoch)
	// After a long idle period tokens must cap at capacity.
	if got := b.Available(epoch.Add(time.Hour)); got != 50 {
		t.Fatalf("Available = %d, want 50", got)
	}
}

func TestTokenBucketWaitTime(t *testing.T) {
	b := NewTokenBucket(100, 100, epoch)
	if w := b.WaitTime(100, epoch); w != 0 {
		t.Fatalf("full bucket wait = %v", w)
	}
	b.Take(100, epoch)
	if w := b.WaitTime(50, epoch); w != 500*time.Millisecond {
		t.Fatalf("wait for 50B at 100B/s = %v, want 500ms", w)
	}
	// Requests above capacity wait only for a full bucket.
	if w := b.WaitTime(1000, epoch); w != time.Second {
		t.Fatalf("oversize wait = %v, want 1s", w)
	}
}

func TestUtilizationAndBounds(t *testing.T) {
	tasks := []Task{
		{C: 10 * time.Millisecond, T: 100 * time.Millisecond}, // 0.1
		{C: 30 * time.Millisecond, T: 100 * time.Millisecond}, // 0.3
	}
	if u := Utilization(tasks); math.Abs(u-0.4) > 1e-9 {
		t.Fatalf("U = %v", u)
	}
	if b := RMBound(1); b != 1 {
		t.Fatalf("RMBound(1) = %v", b)
	}
	if b := RMBound(2); math.Abs(b-0.8284) > 1e-3 {
		t.Fatalf("RMBound(2) = %v", b)
	}
	if b := RMBound(0); b != 1 {
		t.Fatalf("RMBound(0) = %v", b)
	}
}

func TestRMAdmission(t *testing.T) {
	ok := []Task{
		{C: 10 * time.Millisecond, T: 100 * time.Millisecond},
		{C: 20 * time.Millisecond, T: 100 * time.Millisecond},
	} // U=0.3 <= 0.828
	if !RMAdmissible(ok) {
		t.Fatal("feasible set rejected")
	}
	over := []Task{
		{C: 50 * time.Millisecond, T: 100 * time.Millisecond},
		{C: 45 * time.Millisecond, T: 100 * time.Millisecond},
	} // U=0.95 > 0.828
	if RMAdmissible(over) {
		t.Fatal("overloaded set admitted by RM")
	}
	if !EDFAdmissible(over) {
		t.Fatal("U=0.95 should pass EDF bound")
	}
	tooMuch := []Task{{C: 110 * time.Millisecond, T: 100 * time.Millisecond}}
	if EDFAdmissible(tooMuch) {
		t.Fatal("U>1 admitted by EDF")
	}
	if Utilization([]Task{{C: 1, T: 0}}) != 0 {
		t.Fatal("zero-period task should contribute 0")
	}
}

func TestDispatcherExecutesInPriorityOrder(t *testing.T) {
	d := NewDispatcher(DispatcherConfig{Policy: PriorityOrder})
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	wg.Add(3)
	record := func(id int) func() {
		return func() {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			wg.Done()
		}
	}
	// Stall the dispatcher with a blocker so the queue orders before
	// execution starts.
	gate := make(chan struct{})
	var gateWg sync.WaitGroup
	gateWg.Add(1)
	d.Submit(Item{Priority: 255, Do: func() { gateWg.Done(); <-gate }})
	gateWg.Wait() // blocker is running; now queue the test items
	d.Submit(Item{Priority: 1, Do: record(1)})
	d.Submit(Item{Priority: 3, Do: record(3)})
	d.Submit(Item{Priority: 2, Do: record(2)})
	close(gate)
	wg.Wait()
	d.Stop()
	mu.Lock()
	defer mu.Unlock()
	if order[0] != 3 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("order = %v", order)
	}
	dispatched, missed, dropped := d.Stats()
	if dispatched != 4 || missed != 0 || dropped != 0 {
		t.Fatalf("stats = %d/%d/%d", dispatched, missed, dropped)
	}
}

func TestDispatcherCountsMisses(t *testing.T) {
	clk := simtime.NewVirtual(epoch)
	clk.Advance(time.Hour) // now = epoch+1h
	d := NewDispatcher(DispatcherConfig{Policy: EDF, Clock: clk})
	var wg sync.WaitGroup
	wg.Add(1)
	d.Submit(Item{Deadline: epoch, Do: func() { wg.Done() }}) // long past
	wg.Wait()
	d.Stop()
	dispatched, missed, dropped := d.Stats()
	if dispatched != 1 || missed != 1 || dropped != 0 {
		t.Fatalf("stats = %d/%d/%d", dispatched, missed, dropped)
	}
}

func TestDispatcherDropLate(t *testing.T) {
	clk := simtime.NewVirtual(epoch)
	clk.Advance(time.Hour)
	d := NewDispatcher(DispatcherConfig{Policy: EDF, Clock: clk, DropLate: true})
	ran := make(chan struct{}, 1)
	d.Submit(Item{Deadline: epoch, Do: func() { ran <- struct{}{} }})
	// Submit an on-time item to observe progress past the dropped one.
	var wg sync.WaitGroup
	wg.Add(1)
	d.Submit(Item{Deadline: epoch.Add(2 * time.Hour), Do: func() { wg.Done() }})
	wg.Wait()
	d.Stop()
	select {
	case <-ran:
		t.Fatal("late item executed despite DropLate")
	default:
	}
	_, missed, dropped := d.Stats()
	if missed != 1 || dropped != 1 {
		t.Fatalf("missed/dropped = %d/%d", missed, dropped)
	}
}

func TestDispatcherBandwidthThrottle(t *testing.T) {
	clk := simtime.NewVirtual(epoch)
	d := NewDispatcher(DispatcherConfig{
		Policy:          FIFO,
		RateBytesPerSec: 100,
		BurstBytes:      100,
		Clock:           clk,
	})
	var mu sync.Mutex
	count := 0
	var wg sync.WaitGroup
	wg.Add(1)
	// First 100B item passes on the initial burst.
	d.Submit(Item{Size: 100, Do: func() {
		mu.Lock()
		count++
		mu.Unlock()
		wg.Done()
	}})
	wg.Wait()

	done2 := make(chan struct{})
	d.Submit(Item{Size: 100, Do: func() { close(done2) }})
	// The second must wait ~1 virtual second; it cannot have run yet.
	select {
	case <-done2:
		t.Fatal("second item ran without bandwidth")
	case <-time.After(50 * time.Millisecond):
	}
	// Advance virtual time so the bucket refills.
	deadline := time.Now().Add(5 * time.Second)
	for clk.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never armed its bandwidth timer")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(time.Second)
	select {
	case <-done2:
	case <-time.After(5 * time.Second):
		t.Fatal("second item never ran after refill")
	}
	d.Stop()
}

func TestDispatcherStopIdempotent(t *testing.T) {
	d := NewDispatcher(DispatcherConfig{})
	d.Stop()
	d.Stop()
	if d.Backlog() != 0 {
		t.Fatal("backlog nonzero")
	}
}

// --- handoff ---

func handoffFixture(t *testing.T) (*transaction.Table, *discovery.Store, *HandoffManager) {
	t.Helper()
	table := transaction.NewTable()
	reg := NewRegistryStore()
	hm := NewHandoffManager(table, reg, nil)
	return table, reg, hm
}

// NewRegistryStore returns a plain discovery store registry for tests.
func NewRegistryStore() *discovery.Store {
	return discovery.NewStore(nil, 0)
}

func TestHandoffMovesTransactions(t *testing.T) {
	table, reg, hm := handoffFixture(t)
	// Replacement supplier exists.
	if err := reg.Register(&svcdesc.Description{Name: "sensor/bp", Provider: "backup", Reliability: 0.9, PowerLevel: 1}); err != nil {
		t.Fatal(err)
	}
	// Old supplier also registered (must not be chosen).
	if err := reg.Register(&svcdesc.Description{Name: "sensor/bp", Provider: "dying", Reliability: 0.99, PowerLevel: 1}); err != nil {
		t.Fatal(err)
	}
	txn := table.Open("sensor/bp", "dying", transaction.Continuous, 1, qos.Benefit{}, epoch)

	report, err := hm.HandoffPeer("dying", epoch)
	if err != nil {
		t.Fatal(err)
	}
	if report.Moved != 1 || report.Aborted != 0 {
		t.Fatalf("report = %+v", report)
	}
	got, _ := txnOn(table, "backup", txn.ID)
	if got.Peer != "backup" || got.State != transaction.StateActive || got.Handoffs != 1 {
		t.Fatalf("txn after handoff: %+v", got)
	}
}

func TestHandoffAbortsWhenNoReplacement(t *testing.T) {
	table, _, hm := handoffFixture(t)
	txn := table.Open("sensor/unique", "dying", transaction.Continuous, 1, qos.Benefit{}, epoch)
	report, err := hm.HandoffPeer("dying", epoch)
	if err != nil {
		t.Fatal(err)
	}
	if report.Moved != 0 || report.Aborted != 1 {
		t.Fatalf("report = %+v", report)
	}
	if len(report.Results) != 1 || report.Results[0].TxnID != txn.ID || report.Results[0].Rebound {
		t.Fatalf("results = %+v", report.Results)
	}
	if len(table.ByPeer("dying")) != 0 {
		t.Fatal("aborted transaction still in the table")
	}
}

func TestHandoffUsesQoSSpec(t *testing.T) {
	table := transaction.NewTable()
	reg := NewRegistryStore()
	// Two candidates; the spec's reliability floor excludes one.
	_ = reg.Register(&svcdesc.Description{Name: "svc", Provider: "weak", Reliability: 0.4, PowerLevel: 1})
	_ = reg.Register(&svcdesc.Description{Name: "svc", Provider: "strong", Reliability: 0.95, PowerLevel: 1})
	hm := NewHandoffManager(table, reg, func(txn transaction.Txn) *qos.Spec {
		return &qos.Spec{Query: svcdesc.Query{Name: txn.Topic, MinReliability: 0.9}}
	})
	txn := table.Open("svc", "old", transaction.OnDemand, 0, qos.Benefit{}, epoch)
	report, err := hm.HandoffPeer("old", epoch)
	if err != nil || report.Moved != 1 {
		t.Fatalf("report = %+v, %v", report, err)
	}
	if _, ok := txnOn(table, "strong", txn.ID); !ok {
		t.Fatalf("not rebound to strong: %+v", table.ByPeer("weak"))
	}
}

func TestHandoffMultipleTransactions(t *testing.T) {
	table, reg, hm := handoffFixture(t)
	_ = reg.Register(&svcdesc.Description{Name: "a", Provider: "backup-a", Reliability: 0.9, PowerLevel: 1})
	// topic b has no backup.
	table.Open("a", "dying", transaction.Continuous, 0, qos.Benefit{}, epoch)
	table.Open("b", "dying", transaction.Continuous, 0, qos.Benefit{}, epoch)
	table.Open("a", "other-peer", transaction.Continuous, 0, qos.Benefit{}, epoch)

	report, err := hm.HandoffPeer("dying", epoch)
	if err != nil {
		t.Fatal(err)
	}
	if report.Moved != 1 || report.Aborted != 1 || len(report.Results) != 2 {
		t.Fatalf("report = %+v", report)
	}
	// The unrelated peer's transaction is untouched.
	unrelated := table.ByPeer("other-peer")
	if len(unrelated) != 1 {
		t.Fatalf("unrelated transactions affected: %+v", unrelated)
	}
}

func TestHandoffEmptyPeer(t *testing.T) {
	_, _, hm := handoffFixture(t)
	report, err := hm.HandoffPeer("ghost", epoch)
	if err != nil || report.Moved != 0 || report.Aborted != 0 {
		t.Fatalf("report = %+v, %v", report, err)
	}
}

// Property: the queue pops items in non-increasing priority order under
// PriorityOrder and non-decreasing deadline order under EDF, regardless of
// push order.
func TestQueueOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	f := func() bool {
		n := 1 + r.Intn(30)
		pq := NewQueue(PriorityOrder)
		eq := NewQueue(EDF)
		for i := 0; i < n; i++ {
			it := Item{
				Priority: uint8(r.Intn(8)),
				Deadline: epoch.Add(time.Duration(r.Intn(1000)) * time.Millisecond),
			}
			pq.Push(it)
			eq.Push(it)
		}
		lastPrio := 256
		for {
			it, err := pq.Pop()
			if err != nil {
				break
			}
			if int(it.Priority) > lastPrio {
				return false
			}
			lastPrio = int(it.Priority)
		}
		var lastDeadline time.Time
		for {
			it, err := eq.Pop()
			if err != nil {
				break
			}
			if !lastDeadline.IsZero() && it.Deadline.Before(lastDeadline) {
				return false
			}
			lastDeadline = it.Deadline
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a token bucket never grants more than capacity within any
// instant and never goes negative.
func TestTokenBucketProperty(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	f := func() bool {
		rate := 1 + r.Float64()*1000
		capacity := 1 + r.Float64()*1000
		b := NewTokenBucket(rate, capacity, epoch)
		now := epoch
		granted := 0.0
		lastRefill := epoch
		for i := 0; i < 50; i++ {
			step := time.Duration(r.Intn(100)) * time.Millisecond
			now = now.Add(step)
			n := 1 + r.Intn(200)
			if b.Take(n, now) {
				granted += float64(n)
			}
			// Tokens granted since lastRefill cannot exceed capacity +
			// rate*elapsed.
			budget := capacity + rate*now.Sub(lastRefill).Seconds() + 1e-6
			if granted > budget {
				return false
			}
			if b.Available(now) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// txnOn copies the table's record of id if it is bound to peer.
func txnOn(table *transaction.Table, peer string, id uint64) (transaction.Txn, bool) {
	for _, txn := range table.ByPeer(peer) {
		if txn.ID == id {
			return txn, true
		}
	}
	return transaction.Txn{}, false
}
