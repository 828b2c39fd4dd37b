package main

import (
	"fmt"
	"math/rand"
	"time"

	"ndsm/internal/core"
	"ndsm/internal/discovery"
	"ndsm/internal/obs"
	"ndsm/internal/reqlog"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transport"
)

const (
	echoService = "bench/echo"
	// failPenalty is the latency charged to a request that came back wrong or
	// not at all.
	failPenalty = time.Second
)

// rpcWorld is a registry, a supplier node echoing payloads and a consumer
// node bound to it once per connection, all on TCP loopback in this process,
// each instrumented the way ndsm-node instruments itself.
type rpcWorld struct {
	def      workloadDef
	tr       *tracer
	pay      *payloads
	bindings []*core.Binding
	logs     []*streamLog
	down     closers
}

// instrumentedTCP is one node's transport: its own sockets, counted into its
// own registry, and (in a traced run) stamped outermost.
func instrumentedTCP(tr *tracer, reg *obs.Registry, copy int) transport.Transport {
	return tr.wrapTransport(transport.Instrument(transport.NewTCP(nil), reg), copy)
}

func buildRPC(def workloadDef, seed int64, tr *tracer) (world, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &rpcWorld{def: def, tr: tr, pay: newPayloads(rng, def.payload)}
	if tr != nil {
		tr.magic = w.pay.magic
	}
	fail := func(err error) (world, error) {
		w.close()
		return nil, err
	}

	regMetrics := obs.NewRegistry()
	regTr := instrumentedTCP(tr, regMetrics, 0)
	w.down.add(func() { _ = regTr.Close() })
	registry, err := startRegistry(regTr, "127.0.0.1:0", regMetrics)
	if err != nil {
		return fail(err)
	}
	w.down.add(func() { _ = registry.Close() })

	node := func(role string) (*core.Node, *discovery.Client, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, nil, err
		}
		metrics := obs.NewRegistry()
		ntr := instrumentedTCP(tr, metrics, 0)
		w.down.add(func() { _ = ntr.Close() })
		client := discovery.NewClient(ntr, registry.Addr())
		w.down.add(func() { _ = client.Close() })
		n, err := core.NewNode(core.Config{
			Name:      addr,
			Transport: ntr,
			Registry:  client,
			Metrics:   metrics,
			ReqLog:    reqlog.New(reqlog.Options{SampleEvery: 64, Registry: metrics}),
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s node: %w", role, err)
		}
		w.down.add(func() { _ = n.Close() })
		return n, client, nil
	}

	supplier, supClient, err := node("supplier")
	if err != nil {
		return fail(err)
	}
	if err := registerDecoys(supClient, rng); err != nil {
		return fail(err)
	}
	handler := func(p []byte) ([]byte, error) { return p, nil }
	if tr != nil {
		handler = tr.wrapHandler(handler)
	}
	if err := supplier.Serve(&svcdesc.Description{Name: echoService, Reliability: 0.99, PowerLevel: 1}, handler); err != nil {
		return fail(fmt.Errorf("serve: %w", err))
	}

	consumer, _, err := node("consumer")
	if err != nil {
		return fail(err)
	}
	spec := echoSpec
	for i := 0; i < conns(); i++ {
		b, err := consumer.Bind(spec, core.BindOptions{})
		if err != nil {
			return fail(fmt.Errorf("bind %d: %w", i, err))
		}
		w.bindings = append(w.bindings, b)
	}
	return w, nil
}

func (w *rpcWorld) close() { w.down.close() }

// outcomeOf checks one reply against what was sent.
func (w *rpcWorld) outcomeOf(out []byte, err error, seq uint64) outcome {
	if err != nil || !w.pay.echoed(out, seq) {
		return outcomeFailed
	}
	return outcomeOK
}

// sync is the call a control loop makes: Binding.Request, through the whole
// caller-side interceptor chain, returning when the reply is in hand.
func (w *rpcWorld) sync(stream int) ops[outcome] {
	b, buf := w.bindings[stream], w.pay.fresh()
	return ops[outcome]{
		start: func(seq uint64) outcome {
			putHeader(buf, seq, w.pay.magic)
			out, err := b.Request(buf)
			return w.outcomeOf(out, err, seq)
		},
		wait: func(o outcome, _ uint64) outcome { return o },
	}
}

// async pipelines: Binding.RequestAsync now, AsyncReply.Wait later.
func (w *rpcWorld) async(stream int) ops[*core.AsyncReply] {
	b, buf := w.bindings[stream], w.pay.fresh()
	return ops[*core.AsyncReply]{
		start: func(seq uint64) *core.AsyncReply {
			putHeader(buf, seq, w.pay.magic)
			return b.RequestAsync(buf)
		},
		wait: func(r *core.AsyncReply, seq uint64) outcome {
			out, err := r.Wait()
			return w.outcomeOf(out, err, seq)
		},
	}
}

func (w *rpcWorld) closedAll(depth int) func(start, until int64) []func() {
	return func(_, until int64) []func() {
		var runs []func()
		for i := range w.bindings {
			i, o := i, w.async(i)
			runs = append(runs, func() { closedLoop(o, i, depth, until, w.logs[i], w.tr) })
		}
		return runs
	}
}

// closedPerStream is a generous guess at what one connection completes per
// second closed loop, to size its log: about one and a half times the seed's
// quickest window.
const closedPerStream = 250_000

func (w *rpcWorld) warm(p plan) {
	w.logs = newStreamLogs(len(w.bindings),
		closedPerStream*p.warmup.Seconds(),
		closedPerStream*(leadIn+p.capacity).Seconds(),
		1.1*w.def.rate/float64(len(w.bindings))*(leadIn+p.loaded).Seconds())
	runWindow(p.warmSpec(), w.logs, w.closedAll(closedDepth))
}

// window runs one window and adds it to its phase.
func (w *rpcWorld) window(into phases, spec phaseSpec, logs []*streamLog, streams func(start, until int64) []func()) {
	run := runWindow(spec, logs, streams)
	into.add(spec, cutWindow(spec, run, logs, false), mergeSegments(w.tr.takeSegments()...), nil)
}

func (w *rpcWorld) round(p plan, into phases, before func()) {
	penalty := int64(failPenalty)
	before()
	w.window(into, phaseSpec{name: "rtt", window: p.rtt, minSamples: 1000, penaltyNs: penalty}, w.logs[:1],
		func(_, until int64) []func() {
			o := w.sync(0)
			return []func(){func() { closedLoop(o, 0, 1, until, w.logs[0], w.tr) }}
		})
	before()
	w.window(into, phaseSpec{name: "capacity", window: p.capacity, minSamples: 1000, penaltyNs: penalty}, w.logs,
		w.closedAll(closedDepth))
	before()
	w.window(into, phaseSpec{name: "loaded", window: p.loaded, paced: true, rate: w.def.rate, minSamples: 1000, penaltyNs: penalty}, w.logs,
		func(start, until int64) []func() {
			var runs []func()
			for i := range w.bindings {
				i, o := i, w.async(i)
				sched := tickSchedule{start: start, tick: int64(time.Millisecond), perTick: w.def.rate / 1000 / float64(len(w.bindings))}
				runs = append(runs, func() { paced(o, i, sched, collectorBacklog(w.def.payload), until, w.logs[i], w.tr) })
			}
			return runs
		})
}

func (w *rpcWorld) verify() []string {
	if n := w.pay.mismatches.Load(); n > 0 {
		return []string{fmt.Sprintf("%d replies did not echo the payload sent", n)}
	}
	return nil
}

func (w *rpcWorld) layerCounts(metricSet) {}
