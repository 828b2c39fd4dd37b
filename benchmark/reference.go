package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// reference is a fixed piece of work that is not the program under test: a
// bare TCP loopback echo of fixed-size frames, client and server goroutines in
// this process, written against net.Conn alone. It does the kernel's and the
// Go scheduler's share of a round trip and none of the middleware's, and the
// benchmark runs it between the rounds of every run to read how fast the
// machine is just then: README.md, "The machine's speed", says what for.
type reference struct {
	ln     net.Listener
	conns  []net.Conn
	frame  int
	served sync.WaitGroup
}

// newReference starts the echo server and dials it once per connection.
func newReference(conns, frame int) (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference listen: %w", err)
	}
	r := &reference{ln: ln, frame: frame}
	r.served.Add(1)
	go func() {
		defer r.served.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // the listener was closed
			}
			r.served.Add(1)
			go func() {
				defer r.served.Done()
				defer c.Close()
				buf := make([]byte, frame)
				for {
					if _, err := io.ReadFull(c, buf); err != nil {
						return // the client hung up
					}
					if _, err := c.Write(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			r.close()
			return nil, fmt.Errorf("reference dial: %w", err)
		}
		r.conns = append(r.conns, c)
	}
	return r, nil
}

// close hangs up and waits for the server's goroutines.
func (r *reference) close() {
	_ = r.ln.Close()
	for _, c := range r.conns {
		_ = c.Close()
	}
	r.served.Wait()
}

// floodDepth is how many frames the reference keeps in flight per connection
// when it floods: the closed loop's window, or as many as fit in 64 KiB, which
// the sockets' smallest buffers hold without the two ends waiting on each
// other.
func (r *reference) floodDepth() int { return max(1, min(closedDepth, (64<<10)/r.frame)) }

// echo keeps depth frames in flight on every connection for d and returns the
// echoes completed per second in each slice of it.
func (r *reference) echo(d time.Duration, depth int) ([]float64, error) {
	slices := max(1, int(d/sliceLen))
	counts := make([][]int, len(r.conns))
	errs := make([]error, len(r.conns))
	start := nowNs()
	until := start + int64(slices)*int64(sliceLen)
	var wg sync.WaitGroup
	for i, c := range r.conns {
		counts[i] = make([]int, slices)
		wg.Add(1)
		go func(c net.Conn, counts []int, err *error) {
			defer wg.Done()
			buf := make([]byte, r.frame)
			out := 0
			for ; out < depth; out++ {
				if _, *err = c.Write(buf); *err != nil {
					return
				}
			}
			for out > 0 {
				if _, *err = io.ReadFull(c, buf); *err != nil {
					return
				}
				out--
				now := nowNs()
				// What is still in flight at the end comes back in the
				// last slice's name: depth echoes among thousands.
				counts[min(int((now-start)/int64(sliceLen)), slices-1)]++
				if now < until {
					if _, *err = c.Write(buf); *err != nil {
						return
					}
					out++
				}
			}
		}(c, counts[i], &errs[i])
	}
	wg.Wait()
	perSec := make([]float64, slices)
	for i := range r.conns {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference echo: %w", errs[i])
		}
		for s, n := range counts[i] {
			perSec[s] += float64(n) / sliceLen.Seconds()
		}
	}
	return perSec, nil
}

// nominalEcho is what the reference read on the box the benchmark was written
// on, pinned to one processor, in an hour when that box was quick (30
// September 2026): echoes per second at floodDepth, by frame size. A run's
// speed is its own reading over this; it only fixes the scale, so that a
// metric at speed 1 is the metric as measured.
var nominalEcho = map[int]float64{
	smallPayload: 245_000,
	largePayload: 178_000,
}

// machine collects a run's readings of the reference: one before every window
// and one after the last.
type machine struct {
	ref   *reference
	each  time.Duration // length of one reading
	flood []float64     // every slice of every reading, echoes per second
	err   error         // the first reading that failed
}

// read takes one reading.
func (m *machine) read() {
	if m.err != nil {
		return
	}
	flood, err := m.ref.echo(m.each, m.ref.floodDepth())
	if err != nil {
		m.err = err
		return
	}
	m.flood = append(m.flood, flood...)
}

// speed is how fast the machine ran during the run, as a share of nominal:
// the middle half of its readings' slices over the nominal rate.
func (m *machine) speed() float64 { return robust(m.flood).Mid / nominalEcho[m.ref.frame] }
