//go:build !race

// Under the race detector sync.Pool drops entries at random, so exact
// allocation counts do not hold: this file is built without it only.

package rpc

import "testing"

// A Client.Call on mem allocates one object, counted across both sides: the
// reply's payload, which the caller keeps. The copy of the endpoint.Call its
// interceptor chain works on comes from Caller.Do's pool, the server's reply
// envelope is endpoint.NewReply's, the reply's shell goes back to wire's pool
// bare, and the request's clone reuses the request the server recycled the
// call before.
func TestClientCallAllocs(t *testing.T) {
	srv, cli := fixture(t)
	srv.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	payload := make([]byte, 64)
	call := func() {
		if _, err := cli.Call("echo", payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call()
	}
	const want = 1
	if allocs := testing.AllocsPerRun(1000, call); allocs > want {
		t.Fatalf("Client.Call on mem allocates %.2f objects, want at most %d", allocs, want)
	}
}
