package telemetry

import "time"

// Point is one sample in a time series.
type Point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// Series is a fixed-capacity ring buffer of points: the windowed storage
// behind every per-node, per-metric aggregator series. Appends are O(1) and
// the newest Cap points win. Series is not safe for concurrent use; the
// Aggregator serializes access under its own lock.
type Series struct {
	buf  []Point
	next int
	full bool
}

// NewSeries builds a series holding up to capacity points (default 128 when
// capacity <= 0).
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = 128
	}
	return &Series{buf: make([]Point, 0, capacity)}
}

// Append adds a point, evicting the oldest when the window is full.
func (s *Series) Append(p Point) {
	if !s.full {
		s.buf = append(s.buf, p)
		if len(s.buf) == cap(s.buf) {
			s.full = true
			s.next = 0
		}
		return
	}
	s.buf[s.next] = p
	s.next = (s.next + 1) % len(s.buf)
}

// Cap reports the window capacity.
func (s *Series) Cap() int { return cap(s.buf) }

// Points returns the retained points oldest-first.
func (s *Series) Points() []Point {
	out := make([]Point, 0, len(s.buf))
	if s.full {
		out = append(out, s.buf[s.next:]...)
		out = append(out, s.buf[:s.next]...)
	} else {
		out = append(out, s.buf...)
	}
	return out
}

// Last returns the newest point (ok=false on an empty series).
func (s *Series) Last() (Point, bool) {
	if len(s.buf) == 0 {
		return Point{}, false
	}
	idx := len(s.buf) - 1
	if s.full {
		idx = (s.next - 1 + len(s.buf)) % len(s.buf)
	}
	return s.buf[idx], true
}
