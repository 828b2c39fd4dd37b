package sketch

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzSketchDecode hammers both binary decoders with arbitrary input. The
// invariants: never panic, and any input a decoder accepts must re-encode to
// a form the decoder accepts again with identical aggregate state (decoders
// are the trust boundary for digests arriving inside telemetry reports).
func FuzzSketchDecode(f *testing.F) {
	var h Hist
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		h.Add(rng.Float64() * 100)
	}
	f.Add(h.AppendBinary(nil))
	f.Add(new(Hist).AppendBinary(nil))
	h.Add(-3)
	h.Add(1e15)
	f.Add(h.AppendBinary(nil)) // both ends of the grid in use
	tk := NewTopK(8)
	tk.Offer("alpha", 7)
	tk.Offer("beta", 3)
	f.Add(tk.AppendBinary(nil))
	f.Add(NewTopK(4).AppendBinary(nil))
	f.Add([]byte{})
	f.Add([]byte{histMagic})
	f.Add([]byte{topkMagic, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := DecodeHist(data); err == nil {
			h2, err2 := DecodeHist(h.AppendBinary(nil))
			if err2 != nil {
				t.Fatalf("re-decode of accepted hist failed: %v", err2)
			}
			if *h2 != *h {
				t.Fatalf("hist drifted across re-encode: count %d vs %d", h2.Count(), h.Count())
			}
			_ = h.Quantile(0.99) // must not panic on any accepted state
		}
		if k, err := DecodeTopK(data); err == nil {
			re := k.AppendBinary(nil)
			k2, err2 := DecodeTopK(re)
			if err2 != nil {
				t.Fatalf("re-decode of accepted topk failed: %v", err2)
			}
			if !bytes.Equal(re, k2.AppendBinary(nil)) {
				t.Fatalf("topk encoding not stable across round trip")
			}
			_ = k.Top(3)
		}
	})
}
