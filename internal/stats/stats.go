// Package stats is the experiment harness's rendering kit: named counters and
// plain-text table / CSV / ASCII-chart output for reporting experiment results
// in the shape the paper's figures use. It measures nothing itself; latency
// quantiles come from sketch.Hist.
package stats

import "sync"

// Counter is a concurrency-safe monotonically named tally set.
// The zero value is ready to use.
type Counter struct {
	mu sync.Mutex
	m  map[string]int64
}

// Inc adds delta to the named tally.
func (c *Counter) Inc(name string, delta int64) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]int64)
	}
	c.m[name] += delta
	c.mu.Unlock()
}

// Snapshot returns a copy of all tallies.
func (c *Counter) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}
