//go:build !race

// Under the race detector sync.Pool drops entries at random, so exact
// allocation counts do not hold: this file is built without it only.

package mq

import "testing"

// A Push and a Pop of a 64-byte item on mem allocate 22 objects, counted
// across client and broker. The broker keeps its own read loop and never hands
// a request back, so each request's clone is a new shell and payload.
//
// The push is 8: the client's queue header map, two objects (2); the
// request's clone, its shell, its header map and its payload, which the queue
// keeps as the item (4); the broker's acknowledgement envelope (1); and the
// queue's slice, which regrows because a pop reslices it from the front (1).
//
// The pop is 14: the client's JSON request, the value handed to json.Marshal
// and the bytes (2); the request's clone, shell and payload (2); the broker's
// decode, the popRequest that escapes to its long-poll goroutine and five
// objects inside json.Unmarshal (6); that goroutine's closure and argument
// wrapper (2); the reply envelope (1); and the reply's clone of the item, which
// the caller keeps (1).
//
// The Call copies of the interceptor chain come from a pool. The reply shells
// go back to wire's pool: the acknowledgement's with its buffer, the pop's
// bare. So neither costs an object.
func TestPushPopAllocs(t *testing.T) {
	_, c := fixture(t, 0)
	item := make([]byte, 64)
	pushPop := func() {
		if err := c.Push("jobs", item); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Pop("jobs", 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		pushPop()
	}
	const want = 22
	if allocs := testing.AllocsPerRun(1000, pushPop); allocs > want {
		t.Fatalf("a push and a pop on mem allocate %.2f objects, want at most %d", allocs, want)
	}
}
