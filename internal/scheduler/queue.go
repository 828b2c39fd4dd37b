// Package scheduler implements the paper's scheduling feature (§3.7): the
// middleware decides interaction order from priority and deadline,
// admission-tests periodic real-time transactions with the rate-monotonic
// bound (the paper cites Mizunuma's rate-monotonic middleware as the first
// real-time middleware), and — when a supplier is about to depart — hands its
// transactions off to replacement suppliers at elevated priority.
package scheduler

import (
	"container/heap"
	"errors"
	"sync"
	"time"
)

// Policy selects the dispatch order.
type Policy int

// Dispatch policies.
const (
	// FIFO dispatches in arrival order (the baseline E8 compares against).
	FIFO Policy = iota + 1
	// PriorityOrder dispatches the highest Priority first, FIFO within a
	// priority.
	PriorityOrder
	// EDF dispatches the earliest deadline first (no deadline sorts last).
	EDF
)

var policyNames = [...]string{"?", "fifo", "priority", "edf"}

// String returns the policy name.
func (p Policy) String() string {
	if int(p) > 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return "policy(?)"
}

// Item is one schedulable unit of work.
type Item struct {
	// Priority orders PriorityOrder dispatch; higher first.
	Priority uint8
	// Deadline orders EDF dispatch and defines misses; zero means none.
	Deadline time.Time
	// Size is the item's demand; E8 reads it as execution time.
	Size int

	seq uint64 // arrival order, for FIFO and tie-breaking
}

// Queue is a policy-ordered queue of items. The zero value is not usable;
// construct with NewQueue. Safe for concurrent use.
type Queue struct {
	mu      sync.Mutex
	policy  Policy
	items   itemHeap
	nextSeq uint64
}

// NewQueue returns an empty queue under the given policy.
func NewQueue(policy Policy) *Queue {
	q := &Queue{policy: policy}
	q.items.policy = policy
	return q
}

// ErrEmpty reports a pop from an empty queue.
var ErrEmpty = errors.New("scheduler: queue empty")

// Push enqueues an item.
func (q *Queue) Push(it Item) {
	q.mu.Lock()
	q.nextSeq++
	it.seq = q.nextSeq
	heap.Push(&q.items, it)
	q.mu.Unlock()
}

// Pop dequeues the next item per policy.
func (q *Queue) Pop() (Item, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items.items) == 0 {
		return Item{}, ErrEmpty
	}
	return heap.Pop(&q.items).(Item), nil
}

// Len returns the number of queued items.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items.items)
}

// itemHeap orders items per policy.
type itemHeap struct {
	policy Policy
	items  []Item
}

func (h itemHeap) Len() int { return len(h.items) }

func (h itemHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	switch h.policy {
	case PriorityOrder:
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
	case EDF:
		ad, bd := a.Deadline, b.Deadline
		switch {
		case ad.IsZero() && !bd.IsZero():
			return false
		case !ad.IsZero() && bd.IsZero():
			return true
		case !ad.IsZero() && !bd.IsZero() && !ad.Equal(bd):
			return ad.Before(bd)
		}
	}
	return a.seq < b.seq
}

func (h itemHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *itemHeap) Push(x interface{}) { h.items = append(h.items, x.(Item)) }

func (h *itemHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
