//go:build !race

// Under the race detector sync.Pool drops entries at random, so exact
// allocation counts do not hold: this file is built without it only.

package tuplespace

import "testing"

// An Out and an In of a two-field tuple on mem allocate 33 objects, counted
// across client and server. One is the middleware's: the copy of the tuple
// the space stores. The other 32 are the JSON codec's:
//   - marshalling each request on the client: 3 each, the value handed to
//     json.Marshal and the bytes;
//   - unmarshalling each request on the server: 9 each, the tsRequest, the
//     Tuple's slice as it grows, and json.Unmarshal's own objects;
//   - marshalling the tuple In returns: 2;
//   - unmarshalling it on the client: 6.
//
// Nothing else is paid:
//   - the Call copy of the tracing chain comes from a pool;
//   - each request's clone reuses the request the server recycled before;
//   - In's reply envelope is endpoint.NewReply's;
//   - the client hands back both reply shells, the acknowledgement's with its
//     buffer.
func TestRemoteOutInAllocs(t *testing.T) {
	_, cli := remoteFixture(t)
	tuple := Tuple{"job", "42"}
	template := Tuple{"job", Wildcard}
	outIn := func() {
		if err := cli.Out(tuple); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.In(template, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		outIn()
	}
	const want = 33
	if allocs := testing.AllocsPerRun(1000, outIn); allocs > want {
		t.Fatalf("an Out and an In on mem allocate %.2f objects, want at most %d", allocs, want)
	}
}
