package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ndsm/internal/discovery"
	"ndsm/internal/interact/pubsub"
	"ndsm/internal/obs"
	"ndsm/internal/svcdesc"
)

const (
	brokerService = "bench/broker"
	subscribers   = 4
	topicCount    = 16
	// eventsPerStream bounds how many events one publisher can have tracked
	// in one window: twice what the seed publishes in its busiest one.
	eventsPerStream = 1 << 18
	// stragglerWait is how long after the last acknowledged publish the
	// benchmark keeps waiting for copies still on their way to a subscriber.
	stragglerWait = 2 * time.Second
	// closedDepthEvents is how many events a publisher may have undelivered
	// in the capacity phase: enough to keep broker and subscribers busy, far
	// below what a subscription buffers.
	closedDepthEvents = 4
	// subscriptionBuffer is interact/pubsub's per-subscription queue depth.
	subscriptionBuffer = 128
	// pubsubPenalty is the latency charged to an event a subscriber never got.
	pubsubPenalty = int64(stragglerWait)
)

// pacedDepthEvents is the paced phase's credit per publisher: together the
// publishers stay a quarter short of what one subscription buffers.
func pacedDepthEvents() int { return subscriptionBuffer * 3 / 4 / conns() }

// pubsubWorld is a broker, four subscribers on "bench/*" and one publisher
// per connection, on TCP loopback. An event is delivered when the last of the
// four subscribers has it.
type pubsubWorld struct {
	def    workloadDef
	tr     *tracer
	pay    *payloads
	topics []string
	order  []uint8 // the seeded topic sequence, cycled

	broker     *pubsub.Broker
	subs       []*pubsub.Client
	publishers []*pubsub.Client
	logs       []*streamLog

	// Written by publishers before they publish and by the subscribers'
	// draining goroutines; read by both while a phase runs.
	stamped [][]atomic.Int64   // [stream][index] the send stamp written into the payload
	ack     [][]int64          // [stream][index] when Publish returned; its publisher writes, read after the phase
	recv    [][][]atomic.Int64 // [subscriber][stream][index] receipt time
	seen    [][]atomic.Int32   // [stream][index] copies received so far
	got     atomic.Int64       // copies received this phase
	// credits bounds the events a publisher has on their way to subscribers.
	// Publish returns when the broker has written the copies out, not when
	// the subscribers have them, and a subscriber that falls 128 events
	// behind drops; so a publisher takes a credit per event and gets it back
	// when the last subscriber has the event. A closed loop is closed by it.
	// The paced phase holds enough credits never to wait at its rate; they
	// only keep the burst that follows a stalled generator from overrunning
	// the subscribers, and what they delay is timed from its due instant.
	credits []chan struct{}

	duplicates atomic.Int64
	corrupt    atomic.Int64
	missing    int
	delivered  int64
	drains     sync.WaitGroup
	down       closers
}

func buildPubsub(def workloadDef, seed int64, tr *tracer) (world, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &pubsubWorld{def: def, tr: tr, pay: newPayloads(rng, def.payload+8)}
	if tr != nil {
		tr.magic = w.pay.magic
	}
	for i := 0; i < topicCount; i++ {
		w.topics = append(w.topics, fmt.Sprintf("bench/%04x", rng.Intn(1<<16)))
	}
	w.order = make([]uint8, 4096)
	for i := range w.order {
		w.order[i] = uint8(rng.Intn(topicCount))
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

	brokerTr := instrumentedTCP(tr, obs.NewRegistry(), 0)
	w.down.add(func() { _ = brokerTr.Close() })
	l, err := brokerTr.Listen("127.0.0.1:0")
	if err != nil {
		return fail(fmt.Errorf("broker listen: %w", err))
	}
	w.broker = pubsub.NewBroker(l)
	w.down.add(func() { _ = w.broker.Close() })

	// The broker advertises itself among the decoys; every client finds it
	// by lookup, as a node would.
	disc := discovery.NewClient(brokerTr, registry.Addr())
	w.down.add(func() { _ = disc.Close() })
	if err := registerDecoys(disc, rng); err != nil {
		return fail(err)
	}
	if err := disc.Register(&svcdesc.Description{Name: brokerService, Provider: l.Addr(), Reliability: 0.99, PowerLevel: 1}); err != nil {
		return fail(fmt.Errorf("register broker: %w", err))
	}
	dial := func(copy int) (*pubsub.Client, error) {
		ctr := instrumentedTCP(tr, obs.NewRegistry(), copy)
		w.down.add(func() { _ = ctr.Close() })
		lookup := discovery.NewClient(ctr, registry.Addr())
		defer lookup.Close() //nolint:errcheck // only read from
		found, err := lookup.Lookup(&svcdesc.Query{Name: brokerService})
		if err != nil || len(found) != 1 {
			return nil, fmt.Errorf("look up broker: %d found, %v", len(found), err)
		}
		c, err := pubsub.Dial(ctr, found[0].Provider)
		if err != nil {
			return nil, err
		}
		w.down.add(func() { _ = c.Close() })
		return c, nil
	}

	// Closing a subscriber closes its channel, which ends its drain; closers
	// run in reverse, so this wait, added first, runs after those closes.
	w.down.add(w.drains.Wait)
	for s := 0; s < subscribers; s++ {
		c, err := dial(s)
		if err != nil {
			return fail(fmt.Errorf("subscriber %d: %w", s, err))
		}
		ch, err := c.Subscribe("bench/*")
		if err != nil {
			return fail(fmt.Errorf("subscribe %d: %w", s, err))
		}
		w.subs = append(w.subs, c)
		w.drains.Add(1)
		go w.drain(s, ch)
	}
	for i := 0; i < conns(); i++ {
		c, err := dial(0)
		if err != nil {
			return fail(fmt.Errorf("publisher %d: %w", i, err))
		}
		w.publishers = append(w.publishers, c)
	}
	return w, nil
}

// track makes the per-event records, once, before the first event flows. They
// are the benchmark's book-keeping and no part of setting the system up, so
// they are made here and not in the timed build.
func (w *pubsubWorld) track() {
	if w.logs != nil {
		return
	}
	w.recv = make([][][]atomic.Int64, subscribers)
	for s := range w.recv {
		for range w.publishers {
			w.recv[s] = append(w.recv[s], offHeap[atomic.Int64](eventsPerStream))
		}
	}
	for range w.publishers {
		w.logs = append(w.logs, &streamLog{samples: offHeap[sample](eventsPerStream)[:0]})
		w.stamped = append(w.stamped, offHeap[atomic.Int64](eventsPerStream))
		w.ack = append(w.ack, offHeap[int64](eventsPerStream))
		w.seen = append(w.seen, offHeap[atomic.Int32](eventsPerStream))
		w.credits = append(w.credits, make(chan struct{}, pacedDepthEvents()))
	}
}

func (w *pubsubWorld) close() { w.down.close() }

// drain is one subscriber's sink: it takes every event off the subscription
// channel, checks it, and notes when it arrived.
func (w *pubsubWorld) drain(sub int, ch <-chan pubsub.Event) {
	defer w.drains.Done()
	for ev := range ch {
		at := nowNs()
		seq, ok := headerOf(ev.Payload, w.pay.magic)
		stream, index := splitSeq(seq)
		if !ok || len(ev.Payload) != len(w.pay.base) || stream >= len(w.stamped) || index >= eventsPerStream {
			w.corrupt.Add(1)
			continue
		}
		w.tr.stamp(seq, stDone, sub, at)
		stampAt := len(ev.Payload) - 8
		if int64(binary.LittleEndian.Uint64(ev.Payload[stampAt:])) != w.stamped[stream][index].Load() ||
			string(ev.Payload[payloadHeader:stampAt]) != string(w.pay.base[payloadHeader:stampAt]) {
			w.corrupt.Add(1)
		}
		if !w.recv[sub][stream][index].CompareAndSwap(0, at) {
			w.duplicates.Add(1)
		}
		w.got.Add(1)
		if w.seen[stream][index].Add(1) == subscribers {
			w.credits[stream] <- struct{}{} // never blocks: one per credit taken
		}
	}
}

// publish is the one operation: a synchronous Publish, which returns when the
// broker has fanned the event out and acknowledged it. The publisher first
// waits until fewer than window of its events are still on their way to a
// subscriber.
func (w *pubsubWorld) publish(stream, window int) ops[outcome] {
	c, buf := w.publishers[stream], w.pay.fresh()
	stampAt := len(buf) - 8
	credits := w.credits[stream]
	for len(credits) > 0 {
		<-credits // the last phase's, all returned by now
	}
	for i := 0; i < window; i++ {
		credits <- struct{}{}
	}
	return ops[outcome]{
		start: func(seq uint64) outcome {
			_, index := splitSeq(seq)
			if index >= eventsPerStream {
				return outcomeFailed
			}
			<-credits
			at := nowNs()
			w.tr.stamp(seq, stCall, 0, at)
			putHeader(buf, seq, w.pay.magic)
			binary.LittleEndian.PutUint64(buf[stampAt:], uint64(at))
			w.stamped[stream][index].Store(at)
			err := c.Publish(w.topics[w.order[index%uint64(len(w.order))]], buf)
			w.ack[stream][index] = nowNs()
			if err != nil {
				credits <- struct{}{} // no copy will come to give it back
				return outcomeFailed
			}
			return outcomeOK
		},
		wait: func(o outcome, _ uint64) outcome { return o },
	}
}

// settle runs after a phase's publishers have stopped: it waits for copies
// still in flight, then rewrites each logged event's completion as the
// receipt at the last subscriber, and fails the events a subscriber never
// got. It returns the mean Publish duration and the mean first-to-last
// subscriber spread, in µs.
func (w *pubsubWorld) settle(logs []*streamLog) (ackUs, spreadUs float64) {
	published := 0
	for _, l := range logs {
		published += len(l.samples)
	}
	for deadline := nowNs() + int64(stragglerWait); w.got.Load() < int64(published*subscribers) && nowNs() < deadline; {
		time.Sleep(time.Millisecond)
	}
	var ackSum, spreadSum int64
	for stream, l := range logs {
		for i := range l.samples {
			s := &l.samples[i]
			ackSum += w.ack[stream][i] - s.issue
			first, last := int64(0), int64(0)
			for sub := 0; sub < subscribers; sub++ {
				at := w.recv[sub][stream][i].Swap(0)
				if at == 0 {
					s.out = outcomeFailed
					w.missing++
					continue
				}
				w.delivered++
				if first == 0 || at < first {
					first = at
				}
				if at > last {
					last = at
				}
			}
			if s.out == outcomeOK {
				s.done = last
				spreadSum += last - first
			}
			w.stamped[stream][i].Store(0)
			w.seen[stream][i].Store(0)
		}
	}
	w.got.Store(0)
	if published == 0 {
		return 0, 0
	}
	return float64(ackSum) / 1e3 / float64(published), float64(spreadSum) / 1e3 / float64(published)
}

// window runs one window: streams as given, then settle, then the cut.
func (w *pubsubWorld) window(into phases, spec phaseSpec, logs []*streamLog, streams func(start, until int64) []func()) {
	run := runWindow(spec, logs, streams)
	ackUs, spreadUs := w.settle(logs)
	into.add(spec, cutWindow(spec, run, logs, false), mergeSegments(w.tr.takeSegments()...),
		map[string]float64{"pubsub.publish_ack_us": ackUs, "pubsub.delivery_spread_us": spreadUs})
}

// closedAll is every publisher in a closed loop. A publisher stamps its own
// call and the subscribers stamp the deliveries, so the generator is handed
// no tracer.
func (w *pubsubWorld) closedAll() func(start, until int64) []func() {
	return func(_, until int64) []func() {
		var runs []func()
		for i := range w.publishers {
			i, o := i, w.publish(i, closedDepthEvents)
			runs = append(runs, func() { closedLoop(o, i, 1, until, w.logs[i], nil) })
		}
		return runs
	}
}

func (w *pubsubWorld) warm(p plan) {
	w.track()
	w.window(phases{}, p.warmSpec(), w.logs, w.closedAll())
	w.missing, w.delivered = 0, 0
}

func (w *pubsubWorld) round(p plan, into phases, before func()) {
	before()
	w.window(into, phaseSpec{name: "rtt", window: p.rtt, minSamples: 1000, penaltyNs: pubsubPenalty}, w.logs[:1],
		func(_, until int64) []func() {
			o := w.publish(0, 1)
			return []func(){func() { closedLoop(o, 0, 1, until, w.logs[0], nil) }}
		})
	before()
	w.window(into, phaseSpec{name: "capacity", window: p.capacity, minSamples: 1000, penaltyNs: pubsubPenalty}, w.logs, w.closedAll())
	before()
	w.window(into, phaseSpec{name: "loaded", window: p.loaded, paced: true, rate: w.def.rate, minSamples: 1000, penaltyNs: pubsubPenalty}, w.logs,
		func(start, until int64) []func() {
			var runs []func()
			for i := range w.publishers {
				i, o := i, w.publish(i, pacedDepthEvents())
				sched := tickSchedule{start: start, tick: int64(time.Millisecond), perTick: w.def.rate / 1000 / float64(len(w.publishers))}
				runs = append(runs, func() { paced(o, i, sched, collectorBacklog(w.def.payload), until, w.logs[i], nil) })
			}
			return runs
		})
}

func (w *pubsubWorld) verify() []string {
	var bad []string
	if n := w.duplicates.Load(); n > 0 {
		bad = append(bad, fmt.Sprintf("%d events were delivered twice to one subscriber", n))
	}
	if n := w.corrupt.Load(); n > 0 {
		bad = append(bad, fmt.Sprintf("%d events arrived with a wrong header, body or send stamp", n))
	}
	if dropped := w.dropped(); dropped > 0 || w.missing > 0 {
		bad = append(bad, fmt.Sprintf("%d copies dropped by the broker or a client, %d never received", dropped, w.missing))
	}
	return bad
}

// dropped is the copies the broker or a subscriber's client gave up on.
func (w *pubsubWorld) dropped() int64 {
	n := w.broker.Dropped.Load()
	for _, s := range w.subs {
		n += s.DroppedEvents.Load()
	}
	return n
}

func (w *pubsubWorld) layerCounts(m metricSet) {
	m.set("pubsub.delivered", float64(w.delivered))
	m.set("pubsub.dropped", float64(w.dropped())+float64(w.missing))
}
