package scheduler

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
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
