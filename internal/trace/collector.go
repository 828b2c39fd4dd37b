package trace

import "sync"

// DefaultCollectorCap is the span ring capacity when none is given.
const DefaultCollectorCap = 4096

// Collector is a bounded ring buffer of finished spans: the newest spans
// win, the oldest are overwritten and counted — a trace buffer that can run
// unattended for an arbitrarily long soak without growing. Safe for
// concurrent use; share one collector across a simulated world's tracers to
// get a single merged timeline.
type Collector struct {
	mu       sync.Mutex
	capacity int
	buf      []Span // grows by append up to capacity: an idle tracer reserves nothing
	next     int    // the oldest span once len(buf) == capacity; 0 before
	total    uint64
	dropped  uint64
}

// NewCollector builds a collector holding up to capacity spans
// (DefaultCollectorCap when <= 0).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCollectorCap
	}
	return &Collector{capacity: capacity}
}

// Record stores a finished span, evicting the oldest when full.
func (c *Collector) Record(s Span) {
	// The stored copy must not retain the live tracer.
	s.tracer = nil
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	if len(c.buf) < c.capacity {
		c.buf = append(c.buf, s)
		return
	}
	c.dropped++
	c.buf[c.next] = s
	c.next = (c.next + 1) % c.capacity
}

// Spans returns the retained spans in completion order, oldest first.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, 0, len(c.buf))
	out = append(out, c.buf[c.next:]...)
	return append(out, c.buf[:c.next]...)
}

// Len reports how many spans are retained.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

// Total reports how many spans were ever recorded.
func (c *Collector) Total() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Dropped reports how many spans were evicted by the ring.
func (c *Collector) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}
