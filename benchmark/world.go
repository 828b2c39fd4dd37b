package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"ndsm/internal/discovery"
	"ndsm/internal/obs"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transport"
)

// workloadDef is one row of the workload table: everything about a workload
// that is fixed in advance. BENCHMARK.json carries each name and reason; the
// schema has no room for the sizes, so they live here and in the README.
type workloadDef struct {
	name    string
	why     string
	payload int     // request payload bytes (pub/sub: plus an 8-byte send stamp)
	rate    float64 // offered requests per second in the loaded phase, pinned from the seed's capacity
	choice  string  // how that rate was chosen
	build   func(def workloadDef, seed int64, tr *tracer) (world, error)
	// timerBound: the workload's throughput and latencies are set by timers
	// (a sleeping handler), not by how fast the processor is.
	timerBound bool
	// The tracer's shape: how many streams stamp requests and how many
	// delivered copies each request has.
	streams func() int
	copies  int
	relay   bool
}

// conns is the number of client connections and generator goroutines: the
// load is sized to the machine, never beyond it.
func conns() int { return runtime.NumCPU() }

// decoys is how many descriptions besides the real one the registry holds,
// so that a lookup has something to search through.
const decoys = 256

// closedDepth is the closed loop's window per connection in the capacity
// phase.
const closedDepth = 32

// world is one built workload: nodes up, registered, bound or subscribed.
type world interface {
	// warm drives the world for the plan's warm-up and discards the result.
	warm(p plan)
	// round takes one window of every phase, in turn, and adds them to the
	// phases "rtt", "capacity" and "loaded" (overload adds "bulk"). It calls
	// before ahead of every window, with no load running.
	round(p plan, into phases, before func())
	// verify returns the output checks that failed, after the last round.
	verify() []string
	// layerCounts adds the counts this world keeps at its own seams.
	layerCounts(m metricSet)
	close()
}

// plan is the time budget of one run, cut from --seconds. The end-to-end run
// has five rounds, so five windows per phase; the traced run has one.
type plan struct {
	rounds   int
	rtt      time.Duration // window length of the unloaded round-trip phase
	capacity time.Duration // window length of the closed-loop capacity phase
	loaded   time.Duration // window length of the paced phase
	// reference is the length of one reading of the machine's speed: one
	// before every window and one after the last.
	reference time.Duration
	warmup    time.Duration
}

// fullRounds is the number of rounds the window lengths are cut for.
const fullRounds = 5

// planFor spends seconds, over five rounds, on measurement: a fifth on round
// trips, three tenths on capacity, a fifth at the pinned rate, and three
// tenths on the sixteen readings of the machine's speed around the windows
// (every end-to-end time and rate is scaled by that speed, so its noise is in
// all of them).
// Overload, which has no separate capacity phase, floods for capacity +
// loaded. A plan of fewer rounds keeps the window lengths and is that much
// shorter.
func planFor(seconds float64, rounds int) plan {
	per := func(share float64, parts int) time.Duration {
		return time.Duration(share * seconds / float64(parts) * float64(time.Second))
	}
	return plan{
		rounds: rounds,
		rtt:    per(0.2, fullRounds), capacity: per(0.3, fullRounds), loaded: per(0.2, fullRounds),
		reference: per(0.3, 3*fullRounds+1),
		warmup:    2 * time.Second,
	}
}

// warmSpec is the discarded window every world starts with.
func (p plan) warmSpec() phaseSpec {
	return phaseSpec{name: "warmup", window: p.warmup - leadIn}
}

// freeAddr returns a loopback address nothing listens on right now. A node's
// name is the address it listens on and advertises, so it must be known
// before the node exists; the port could be taken in between, which fails the
// set-up loudly instead of measuring something else.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve a loopback port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startRegistry serves a fresh central registry on tr at addr.
func startRegistry(tr transport.Transport, addr string, reg *obs.Registry) (*discovery.Server, error) {
	l, err := tr.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("registry listen: %w", err)
	}
	return discovery.NewResolverServer(discovery.NewStore(nil, 0), l, discovery.ServerOptions{Metrics: reg}), nil
}

// registerDecoys fills the registry, one round trip per description as a node
// starting up would, with descriptions drawn from rng.
func registerDecoys(c *discovery.Client, rng *rand.Rand) error {
	for i := 0; i < decoys; i++ {
		d := &svcdesc.Description{
			Name:        fmt.Sprintf("decoy/%08x", rng.Uint32()),
			Provider:    fmt.Sprintf("10.%d.%d.%d:%d", rng.Intn(256), rng.Intn(256), rng.Intn(256), 1024+rng.Intn(60000)),
			InstanceID:  fmt.Sprint(i),
			Version:     fmt.Sprintf("%d.%d", 1+rng.Intn(3), rng.Intn(10)),
			Attributes:  map[string]string{"zone": fmt.Sprint(rng.Intn(8)), "rate": fmt.Sprint(rng.Intn(1000))},
			Reliability: 0.5 + rng.Float64()/2,
			PowerLevel:  rng.Float64(),
		}
		if err := c.Register(d); err != nil {
			return fmt.Errorf("register decoy %d: %w", i, err)
		}
	}
	return nil
}

// payloads makes and checks the benchmark's payloads: a header naming the
// request, then bytes drawn from the seed.
type payloads struct {
	magic      uint64
	base       []byte
	mismatches atomic.Int64
}

func newPayloads(rng *rand.Rand, size int) *payloads {
	if size < payloadHeader {
		size = payloadHeader
	}
	p := &payloads{magic: rng.Uint64() | 1, base: make([]byte, size)}
	rng.Read(p.base)
	return p
}

// fresh returns a buffer one stream reuses for every request it sends: the
// transport has copied or serialised it by the time Send returns.
func (p *payloads) fresh() []byte { return append([]byte(nil), p.base...) }

// echoed reports whether got is the payload sent as request seq, and counts
// it if not.
func (p *payloads) echoed(got []byte, seq uint64) bool {
	s, ok := headerOf(got, p.magic)
	if ok && s == seq && len(got) == len(p.base) && bytes.Equal(got[payloadHeader:], p.base[payloadHeader:]) {
		return true
	}
	p.mismatches.Add(1)
	return false
}

// closers tears a world down in reverse order of construction.
type closers []func()

func (c *closers) add(f func()) { *c = append(*c, f) }

func (c *closers) close() {
	for i := len(*c) - 1; i >= 0; i-- {
		(*c)[i]()
	}
	*c = nil
}
