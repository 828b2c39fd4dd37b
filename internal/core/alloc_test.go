//go:build !race

// Under the race detector sync.Pool drops entries at random, so exact
// allocation counts do not hold: this file is built without it only.

package core

import (
	"runtime"
	"testing"

	"ndsm/internal/discovery"
	"ndsm/internal/qos"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transport"
)

// A bound request on mem allocates one object, counted across both nodes: the
// reply's payload, which the consumer keeps. The copy of the endpoint.Call the
// binding's interceptor chain works on comes from Caller.Do's pool, the
// supplier's reply envelope is endpoint.NewReply's, the reply's clone goes
// back to wire's pool without its payload, and the request's clone reuses the
// request the supplier recycled the call before.
func TestBindingRequestAllocs(t *testing.T) {
	w := newWorld(t)
	if err := w.node("sup").Serve(bpDesc(0.9), func(p []byte) ([]byte, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	b, err := w.node("con").Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	payload := make([]byte, 64)
	request := func() {
		if _, err := b.Request(payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		request()
	}
	const want = 1
	if allocs := testing.AllocsPerRun(1000, request); allocs > want {
		t.Fatalf("Binding.Request on mem allocates %.2f objects, want at most %d", allocs, want)
	}
}

// RequestAsync and Wait on TCP loopback allocate two objects, counted across
// both nodes: the AsyncReply, which holds its call's endpoint.Future, and the
// reply's payload, which the consumer keeps. The Call stays on the stack
// (Caller.Start), the reply envelope is endpoint.NewReply's, and both decodes
// draw shells the other side gave back. The two are 192 B: 128 for the
// AsyncReply (TestAsyncHandleSizes) and 64 for the payload.
func TestBindingRequestAsyncAllocsTCP(t *testing.T) {
	store := discovery.NewStore(nil, 0)
	node := func() *Node {
		tr := transport.NewTCP(nil)
		t.Cleanup(func() { _ = tr.Close() })
		probe, err := tr.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := probe.Addr()
		_ = probe.Close()
		n, err := NewNode(Config{Name: addr, Transport: tr, Registry: store})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	if err := node().Serve(bpDesc(0.9), func(p []byte) ([]byte, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	b, err := node().Bind(&qos.Spec{Query: svcdesc.Query{Name: "sensor/bp"}}, BindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	payload := make([]byte, 64)
	request := func() {
		if _, err := b.RequestAsync(payload).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		request()
	}
	const want = 2
	if allocs := testing.AllocsPerRun(1000, request); allocs > want {
		t.Fatalf("RequestAsync and Wait on TCP allocate %.2f objects, want at most %d", allocs, want)
	}
	// The slack is for what the runtime and the test allocate beside the
	// calls, a few bytes a call, well short of the next size class.
	const wantBytes, slack = 192, 8
	if bytes := bytesPerRun(1000, request); bytes > wantBytes+slack {
		t.Fatalf("RequestAsync and Wait on TCP allocate %.1f B, want at most %d", bytes, wantBytes)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes allocated
// per call of f, on one processor, from runtime.MemStats.TotalAlloc.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
