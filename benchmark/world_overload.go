package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"ndsm/internal/discovery"
	"ndsm/internal/endpoint"
	"ndsm/internal/obs"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// The overload workload's shape: experiment E13 made long. The server runs
// 16 handlers at once, each asleep for 2 ms, so it completes 8 000 requests a
// second and is not CPU-bound; the bulk lane offers twice that.
const (
	overloadServer   = "srv"
	overloadTopic    = "work"
	serviceTime      = 2 * time.Millisecond
	maxInFlight      = 16
	controlQuota     = 2
	laneQueueDepth   = 32
	overloadFactor   = 2.0
	controlDeadline  = 10 * time.Millisecond
	bulkDeadline     = 100 * time.Millisecond
	controlPerSecond = 1000.0

	streamControl = 0
	streamBulk    = 1
)

// nominalCapacity is what the server completes per second when every slot is
// busy and every sleep is exact.
func nominalCapacity() float64 { return maxInFlight / serviceTime.Seconds() }

// overloadWorld is one endpoint.Server on the mem transport behind priority
// lanes, a control-lane caller and a bulk-lane caller.
type overloadWorld struct {
	def     workloadDef
	tr      *tracer
	pay     *payloads
	metrics *obs.Registry
	callers [2]*endpoint.Caller
	logs    []*streamLog

	clientSheds    atomic.Int64 // refusals the callers saw, over the world's life
	clientTimeouts atomic.Int64
	mismatches     atomic.Int64
	down           closers
}

func buildOverload(def workloadDef, seed int64, tr *tracer) (world, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &overloadWorld{def: def, tr: tr, pay: newPayloads(rng, def.payload), metrics: obs.NewRegistry()}
	if tr != nil {
		tr.magic = w.pay.magic
	}
	fail := func(err error) (world, error) {
		w.close()
		return nil, err
	}
	fabric := transport.NewFabric()
	mem := func() transport.Transport {
		t := tr.wrapTransport(transport.NewMem(fabric), 0)
		w.down.add(func() { _ = t.Close() })
		return t
	}

	registry, err := startRegistry(mem(), "registry", obs.NewRegistry())
	if err != nil {
		return fail(err)
	}
	w.down.add(func() { _ = registry.Close() })

	srvTr := mem()
	l, err := srvTr.Listen(overloadServer)
	if err != nil {
		return fail(fmt.Errorf("server listen: %w", err))
	}
	srv := endpoint.NewServer(l, endpoint.ServerOptions{
		Name:        overloadServer,
		MaxInFlight: maxInFlight,
		Metrics:     w.metrics,
		Lanes: &endpoint.LaneConfig{
			Quota:      map[endpoint.Lane]int{endpoint.LaneControl: controlQuota},
			QueueDepth: laneQueueDepth,
		},
	})
	w.down.add(func() { _ = srv.Close() })
	work := func(p []byte) ([]byte, error) {
		time.Sleep(w.serviceTimeOf(p))
		return p[:payloadHeader], nil
	}
	if tr != nil {
		work = tr.wrapHandler(work)
	}
	srv.Handle(overloadTopic, func(req *wire.Message) (*wire.Message, error) {
		if len(req.Payload) < payloadHeader {
			return nil, errors.New("short payload")
		}
		out, err := work(req.Payload)
		return &wire.Message{Kind: wire.KindReply, Payload: out}, err
	})

	disc := discovery.NewClient(srvTr, registry.Addr())
	w.down.add(func() { _ = disc.Close() })
	if err := registerDecoys(disc, rng); err != nil {
		return fail(err)
	}
	if err := disc.Register(&svcdesc.Description{Name: overloadTopic, Provider: overloadServer, Reliability: 0.99, PowerLevel: 1}); err != nil {
		return fail(fmt.Errorf("register server: %w", err))
	}

	// One caller per lane: each classifies its whole stream once, as a real
	// control plane and a real bulk pipeline would.
	for stream, lane := range [2]endpoint.Lane{streamControl: endpoint.LaneControl, streamBulk: endpoint.LaneBulk} {
		ctr := mem()
		lookup := discovery.NewClient(ctr, registry.Addr())
		found, err := lookup.Lookup(&svcdesc.Query{Name: overloadTopic})
		_ = lookup.Close() // only read from
		if err != nil || len(found) != 1 {
			return fail(fmt.Errorf("look up server: %d found, %v", len(found), err))
		}
		c, err := endpoint.NewCaller(ctr, found[0].Provider, endpoint.CallerOptions{Eager: true, Lane: lane})
		if err != nil {
			return fail(fmt.Errorf("caller %v: %w", lane, err))
		}
		w.down.add(func() { _ = c.Close() })
		w.callers[stream] = c
	}
	return w, nil
}

// serviceTimeOf is how long the handler sleeps on one request: serviceTime on
// average, spread evenly over a quarter either side by a hash of the request's
// number and the seed. With every request taking exactly two ticks the server
// phase-locks to the generator's tick grid, in one of two patterns that a
// window keeps once it has fallen into it: the control lane's median was 2.35
// ms in some windows and 3.15 ms in others, a third apart, on the same code.
func (w *overloadWorld) serviceTimeOf(p []byte) time.Duration {
	seq, _ := headerOf(p, w.pay.magic)
	h := (seq ^ w.pay.magic) * 0x9e3779b97f4a7c15
	return serviceTime*3/4 + time.Duration(h>>32)%(serviceTime/2)
}

func (w *overloadWorld) close() { w.down.close() }

func (w *overloadWorld) outcomeOf(m *wire.Message, err error, seq uint64) outcome {
	switch {
	case err == nil:
		if s, ok := headerOf(m.Payload, w.pay.magic); !ok || s != seq {
			w.mismatches.Add(1)
			return outcomeFailed
		}
		return outcomeOK
	case endpoint.IsShed(err):
		w.clientSheds.Add(1)
		return outcomeShed
	case errors.Is(err, endpoint.ErrTimeout):
		// The deadline is part of the policy under test: a call that ran out
		// of time was refused by the clock instead of by the admitter. It
		// misses its deadline and counts as not served, but nothing
		// malfunctioned.
		w.clientTimeouts.Add(1)
		return outcomeShed
	default:
		return outcomeFailed
	}
}

func (w *overloadWorld) call(buf []byte, seq uint64, timeout time.Duration) *endpoint.Call {
	putHeader(buf, seq, w.pay.magic)
	return &endpoint.Call{Topic: overloadTopic, Payload: buf, Timeout: timeout}
}

// sync is the control loop with nothing else on the server: one Do at a time.
func (w *overloadWorld) sync(stream int, timeout time.Duration) ops[outcome] {
	c, buf := w.callers[stream], w.pay.fresh()
	return ops[outcome]{
		start: func(seq uint64) outcome {
			m, err := c.Do(w.call(buf, seq, timeout))
			return w.outcomeOf(m, err, seq)
		},
		wait: func(o outcome, _ uint64) outcome { return o },
	}
}

func (w *overloadWorld) async(stream int, timeout time.Duration) ops[*endpoint.Future] {
	c, buf := w.callers[stream], w.pay.fresh()
	return ops[*endpoint.Future]{
		start: func(seq uint64) *endpoint.Future { return c.Go(w.call(buf, seq, timeout)) },
		wait: func(f *endpoint.Future, seq uint64) outcome {
			m, err := f.Wait()
			return w.outcomeOf(m, err, seq)
		},
	}
}

// flood offers bulk at twice capacity and control once per tick, both paced
// open loop from the same tick grid.
func (w *overloadWorld) flood(start, until int64) []func() {
	tick := int64(time.Millisecond)
	ctl, bulk := w.async(streamControl, controlDeadline), w.async(streamBulk, bulkDeadline)
	ctlSched := tickSchedule{start: start, tick: tick, perTick: controlPerSecond / 1000}
	bulkSched := tickSchedule{start: start, tick: tick, perTick: overloadFactor * nominalCapacity() / 1000}
	return []func(){
		func() {
			paced(ctl, streamControl, ctlSched, collectorBacklog(w.def.payload), until, w.logs[streamControl], w.tr)
		},
		func() {
			paced(bulk, streamBulk, bulkSched, collectorBacklog(w.def.payload), until, w.logs[streamBulk], w.tr)
		},
	}
}

// offered is what both lanes together are sent per second during the flood.
func offered() float64 { return controlPerSecond + overloadFactor*nominalCapacity() }

func (w *overloadWorld) warm(p plan) {
	bulkPerSecond := 1.1 * overloadFactor * nominalCapacity()
	w.logs = newStreamLogs(len(w.callers), bulkPerSecond*p.warmup.Seconds(), bulkPerSecond*(leadIn+p.capacity+p.loaded).Seconds())
	runWindow(p.warmSpec(), w.logs, w.flood)
}

func (w *overloadWorld) round(p plan, into phases, before func()) {
	ctlLog, bulkLog := w.logs[streamControl:streamControl+1], w.logs[streamBulk:streamBulk+1]

	// A 2 ms handler allows some 400 round trips a second: enough for a p90
	// with ten samples beyond it in a one-second window, not for a p99.
	rtt := phaseSpec{name: "rtt", window: p.rtt, minSamples: 200, penaltyNs: int64(bulkDeadline)}
	before()
	run := runWindow(rtt, ctlLog, func(_, until int64) []func() {
		o := w.sync(streamControl, bulkDeadline)
		return []func(){func() { closedLoop(o, streamControl, 1, until, w.logs[streamControl], w.tr) }}
	})
	into.add(rtt, cutWindow(rtt, run, ctlLog, false), mergeSegments(w.tr.takeSegments()...), nil)

	// One flood, read three ways: everything (what the server got through,
	// and what it cost per request offered), the control lane (its latency
	// while bulk floods), and the bulk lane (how much of it was refused).
	flood := phaseSpec{window: p.capacity + p.loaded, paced: true, rate: offered(), minSamples: 1000}
	before()
	run = runWindow(flood, w.logs, w.flood)
	all, ctl, bulk := flood, flood, flood
	all.name, all.penaltyNs = "capacity", int64(bulkDeadline)
	ctl.name, ctl.penaltyNs, ctl.limitNs, ctl.rate = "loaded", int64(controlDeadline), int64(controlDeadline), controlPerSecond
	bulk.name, bulk.penaltyNs = "bulk", int64(bulkDeadline)
	var bulkSegs, ctlSegs *segmentTable
	if segs := w.tr.takeSegments(); segs != nil {
		bulkSegs, ctlSegs = segs[streamBulk], segs[streamControl]
	}
	into.add(all, cutWindow(all, run, w.logs, true), bulkSegs, nil)
	into.add(ctl, cutWindow(ctl, run, ctlLog, true), ctlSegs, nil)
	into.add(bulk, cutWindow(bulk, run, bulkLog, true), nil, nil)
}

// verify reconciles what the callers saw with what the server counted: every
// refusal the server made reached a caller as a refusal, unless that caller
// had already given up on the request.
func (w *overloadWorld) verify() []string {
	var bad []string
	if n := w.mismatches.Load(); n > 0 {
		bad = append(bad, fmt.Sprintf("%d replies did not name the request sent", n))
	}
	server := w.metrics.Counter(overloadServer + ".shed").Value()
	client := w.clientSheds.Load()
	if diff := server - client; diff < 0 || diff > w.clientTimeouts.Load() {
		bad = append(bad, fmt.Sprintf("server counted %d sheds, callers saw %d (and %d timeouts)", server, client, w.clientTimeouts.Load()))
	}
	return bad
}

func (w *overloadWorld) layerCounts(m metricSet) {
	counter := func(name string) float64 { return float64(w.metrics.Counter(overloadServer + name).Value()) }
	for _, lane := range []string{"control", "bulk"} {
		m.set("endpoint.admit.admitted."+lane, counter(".lane."+lane+".admitted"))
		m.set("endpoint.admit.shed."+lane, counter(".lane."+lane+".shed"))
		m.set("endpoint.admit.queued."+lane, w.metrics.Gauge(overloadServer+".lane."+lane+".queued").Value())
	}
	m.set("endpoint.admit.expired", counter(".shed.expired"))
	m.set("endpoint.admit.preempted", counter(".shed.preempted"))
}
