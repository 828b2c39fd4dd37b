package svcdesc

import (
	"hash/fnv"
	"testing"
)

// TestKeyHashPinned pins the key hash to FNV-1a exactly: registry-cluster
// placement derives from these values, so a change here is a wire-format
// break, not a refactor.
func TestKeyHashPinned(t *testing.T) {
	pinned := map[string]uint64{
		"":                                     0xcbf29ce484222325,
		"node-1|printer|0":                     0xf6e3bc09e6b42d93,
		"10.0.0.7:9000|sensor/bloodpressure|a": 0xd4b065e580d7da4f,
	}
	for key, want := range pinned {
		if got := KeyHash(key); got != want {
			t.Errorf("KeyHash(%q) = %#x, want %#x", key, got, want)
		}
	}
}

// TestKeyHashMatchesStdlib cross-checks the hand-rolled (allocation-free)
// loop against hash/fnv over arbitrary keys.
func TestKeyHashMatchesStdlib(t *testing.T) {
	keys := []string{"a", "ab", "provider|name|instance", "日本語|svc|x", string([]byte{0, 1, 2, 255})}
	for _, key := range keys {
		h := fnv.New64a()
		h.Write([]byte(key))
		if got, want := KeyHash(key), h.Sum64(); got != want {
			t.Errorf("KeyHash(%q) = %#x, stdlib fnv = %#x", key, got, want)
		}
	}
}
