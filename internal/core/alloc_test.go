//go:build !race

// Under the race detector sync.Pool drops entries at random, so exact
// allocation counts do not hold: this file is built without it only.

package core

import (
	"testing"

	"ndsm/internal/qos"
	"ndsm/internal/svcdesc"
)

// A bound request on mem allocates four objects, counted across both nodes:
// the endpoint.Call the binding builds, the reply the supplier wraps its
// handler's bytes in, and the shell and payload of the reply's clone, which
// the consumer keeps (nothing refills the pool for it). The request's clone
// reuses the request the supplier recycled the call before.
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
	const want = 4
	if allocs := testing.AllocsPerRun(1000, request); allocs > want {
		t.Fatalf("Binding.Request on mem allocates %.2f objects, want at most %d", allocs, want)
	}
}
