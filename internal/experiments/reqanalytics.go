package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"ndsm/internal/endpoint"
	"ndsm/internal/obs"
	"ndsm/internal/reqlog"
	"ndsm/internal/stats"
	"ndsm/internal/telemetry"
	"ndsm/internal/transport"
	"ndsm/internal/wire"
)

// E15Options sizes the request-analytics experiment.
type E15Options struct {
	// Seed fixes the workload RNG (default 15).
	Seed int64
	// Nodes is how many recorders (simulated nodes) feed the aggregator
	// (default 3).
	Nodes int
	// Requests is the per-node request count (default 20000).
	Requests int
	// ColdTopics is how many background topics share the non-hot traffic
	// (default 12).
	ColdTopics int
	// HotShare is the injected hot topic's traffic fraction (default 0.5).
	HotShare float64
	// Duration is one closed-loop throughput trial's measured window
	// (default 300ms).
	Duration time.Duration
	// Trials is how many interleaved off/on throughput trials run; the best
	// of each mode is compared, which cancels scheduler noise (default 3).
	Trials int
}

func (o E15Options) withDefaults() E15Options {
	if o.Seed == 0 {
		o.Seed = 15
	}
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Requests <= 0 {
		o.Requests = 20000
	}
	if o.ColdTopics <= 0 {
		o.ColdTopics = 12
	}
	if o.HotShare <= 0 || o.HotShare >= 1 {
		o.HotShare = 0.5
	}
	if o.Duration <= 0 {
		o.Duration = 300 * time.Millisecond
	}
	if o.Trials <= 0 {
		o.Trials = 3
	}
	return o
}

// e15Gates: the injected hot topic must rank #1 in the cluster-merged top-k,
// the merged histogram's p99 must sit within 5% of the exact distribution, the
// sampled-out recorder path must stay allocation-free, and the recorder's
// absolute cost on a worst-case no-op closed loop must stay under 2µs per
// request (measured ~0.3–0.9µs: two clock reads plus the lock-cheap Record;
// the bound is where the path has clearly grown a lock fight or an
// allocation). Attribution that misranks, misestimates, or taxes the hot
// path is a regression.
var e15Gates = []Gate{
	{"E15: cluster attribution from merged sketches/hot/rank", 1,
		"hot-topic rank in the merged top-k"},
	{"E15: cluster attribution from merged sketches/hot/p99 err %", 5,
		"merged-sketch p99 error vs exact"},
	{"E15: sampled-out hot path/recorder.Record (sampled out)/allocs/op", 0,
		"sampled-out recorder allocations"},
	{"E15: endpoint throughput with wide events/closed loop/overhead ns/req", 2000,
		"wide-event overhead per request (closed-loop echo)"},
}

// E15 validates the request-analytics plane on both of its promises:
//
//   - Attribution accuracy: a skewed workload with one injected hot topic is
//     recorded on every node, the per-node sketches ship through telemetry
//     reports, and the aggregator's cluster-wide merge must rank the hot
//     topic #1 in the heavy-hitter summary with merged-histogram quantiles
//     within a few percent of the exact (fully retained) distribution.
//   - Overhead: the recorder's sampled-out hot path must cost zero
//     allocations per request, and the server-side recorder's absolute cost —
//     measured as added nanoseconds per request on a worst-case closed-loop
//     no-op echo, where nothing else amortizes it — must stay bounded. The
//     headline "<5% on a representative workload" claim is carried by the
//     benchmark pipeline instead: rpc_small_tcp's servers (benchmark/) run
//     with recorders attached, so its capacity_rps and cpu_us_per_req are
//     instrumented numbers, held to their BENCHMARK.json bounds every PR.
//
// Both halves gate absolutely in ndsm-bench -compare: rank, p99 error,
// allocs/op, and the per-request overhead have contracts, not baselines.
func E15(opts E15Options) (Result, error) {
	opts = opts.withDefaults()

	acc, err := e15Attribution(opts)
	if err != nil {
		return Result{}, fmt.Errorf("E15 attribution: %w", err)
	}

	allocs := e15SampledOutAllocs()

	off, on, err := e15ThroughputPair(opts)
	if err != nil {
		return Result{}, fmt.Errorf("E15 throughput: %w", err)
	}
	// Absolute per-request cost of recording: the difference in round-trip
	// time, not a ratio — a no-op echo makes any fixed cost look like a large
	// percentage, but the nanoseconds are what a real workload actually pays.
	overheadNs := 0.0
	if off > 0 && on > 0 {
		overheadNs = 1e9 * (1/on - 1/off)
	}

	attr := stats.NewTable("E15: cluster attribution from merged sketches",
		"topic", "rank", "exact share %", "count err %", "p50 err %", "p99 err %")
	attr.AddRow("hot", acc.hotRank, acc.hotShare, acc.hotCountErr, acc.hotP50Err, acc.hotP99Err)
	attr.AddRow("cold (worst)", acc.worstColdRank, acc.worstColdShare,
		acc.worstColdCountErr, acc.worstColdP50Err, acc.worstColdP99Err)

	alloc := stats.NewTable("E15: sampled-out hot path",
		"path", "allocs/op")
	alloc.AddRow("recorder.Record (sampled out)", allocs)

	tput := stats.NewTable("E15: endpoint throughput with wide events",
		"workload", "req/s reqlog off", "req/s reqlog on", "overhead ns/req")
	tput.AddRow("closed loop", off, on, overheadNs)

	notes := []string{
		fmt.Sprintf("workload: %d nodes x %d requests, hot topic at %.0f%% share over %d cold topics (seed %d);",
			opts.Nodes, opts.Requests, 100*opts.HotShare, opts.ColdTopics, opts.Seed),
		"sketches travel inside telemetry reports; quantiles and ranks are read from the aggregator's cluster merge, never from raw samples;",
		fmt.Sprintf("throughput: best of %d interleaved %v closed-loop trials per mode; overhead is the added round-trip time on a no-op in-memory echo — the worst case, since nothing amortizes the recorder's two clock reads;",
			opts.Trials, opts.Duration),
		"the <5% contract on a representative workload lives in benchmark/: rpc_small_tcp's servers record wide events, so its capacity_rps and cpu_us_per_req are already instrumented.",
	}
	if acc.hotRank != 1 {
		notes = append(notes, fmt.Sprintf("VIOLATION hot topic ranked #%d in the merged top-k, want #1.", acc.hotRank))
	}
	return Result{
		ID:     "E15",
		Title:  "Request analytics: attribution accuracy and wide-event overhead",
		Tables: []*stats.Table{attr, alloc, tput},
		Notes:  notes,
	}, nil
}

// e15Accuracy is the attribution leg's reading.
type e15Accuracy struct {
	hotRank     int
	hotShare    float64
	hotCountErr float64
	hotP50Err   float64
	hotP99Err   float64

	worstColdRank     int
	worstColdShare    float64
	worstColdCountErr float64
	worstColdP50Err   float64
	worstColdP99Err   float64
}

// e15Attribution drives the skewed workload through per-node recorders,
// ships each node's sketches in a telemetry report, and compares the
// aggregator's cluster-wide merge against the exact per-topic distributions.
func e15Attribution(opts E15Options) (e15Accuracy, error) {
	const hotTopic = "svc/hot"
	coldTopic := func(i int) string { return fmt.Sprintf("svc/cold%02d", i) }

	agg := telemetry.NewAggregator(telemetry.AggregatorOptions{
		StaleAfter: time.Minute,
		Registry:   obs.NewRegistry(),
	})
	// Exact per-topic latency samples (ms), all nodes pooled — the ground
	// truth the sketches are judged against.
	exact := make(map[string][]float64)
	counts := make(map[string]float64)

	for n := 0; n < opts.Nodes; n++ {
		rng := rand.New(rand.NewSource(opts.Seed + int64(n)))
		rec := reqlog.New(reqlog.Options{Registry: obs.NewRegistry()})
		for i := 0; i < opts.Requests; i++ {
			topic := hotTopic
			// Hot traffic is fast and heavy; each cold topic is a slower
			// long-tailed stream, so ranks and quantiles pull in opposite
			// directions — exactly the confusion attribution must resolve.
			latMs := 1 + rng.ExpFloat64()*2
			if rng.Float64() >= opts.HotShare {
				c := rng.Intn(opts.ColdTopics)
				topic = coldTopic(c)
				latMs = 5 + float64(c) + rng.ExpFloat64()*20
			}
			rec.Record(reqlog.Record{
				Time:    time.Now(),
				Kind:    reqlog.KindServer,
				Topic:   topic,
				Outcome: reqlog.OutcomeOK,
				Latency: time.Duration(latMs * float64(time.Millisecond)),
			})
			exact[topic] = append(exact[topic], latMs)
			counts[topic]++
		}
		if err := agg.Ingest(&telemetry.Report{
			Node:         fmt.Sprintf("n%d", n),
			Seq:          1,
			Time:         time.Now(),
			TopicDigests: rec.TopicDigests(),
			TopKDigest:   rec.TopKBinary(),
		}); err != nil {
			return e15Accuracy{}, err
		}
	}
	total := 0.0
	for _, c := range counts {
		total += c
	}
	for _, samples := range exact {
		sort.Float64s(samples)
	}

	ranked := agg.MergedTopK(0)
	rankOf := func(topic string) (int, float64) {
		for i, e := range ranked {
			if e.Key == topic {
				return i + 1, float64(e.Count)
			}
		}
		return len(ranked) + 1, 0
	}
	quantErr := func(topic string, q float64) (float64, error) {
		est, ok := agg.TopicQuantile(topic, q)
		if !ok {
			return 0, fmt.Errorf("topic %s missing from merged digests", topic)
		}
		samples := exact[topic]
		// The order statistic sketch.Hist estimates: rank ⌈q·n⌉.
		truth := samples[int(math.Ceil(q*float64(len(samples))))-1]
		return 100 * abs(est-truth) / truth, nil
	}
	pctErr := func(est, truth float64) float64 {
		if truth == 0 {
			return 0
		}
		return 100 * abs(est-truth) / truth
	}

	var acc e15Accuracy
	var estCount float64
	acc.hotRank, estCount = rankOf(hotTopic)
	acc.hotShare = 100 * counts[hotTopic] / total
	acc.hotCountErr = pctErr(estCount, counts[hotTopic])
	var err error
	if acc.hotP50Err, err = quantErr(hotTopic, 0.50); err != nil {
		return acc, err
	}
	if acc.hotP99Err, err = quantErr(hotTopic, 0.99); err != nil {
		return acc, err
	}

	// The worst cold topic by p99 error: attribution has to hold on the
	// long tail too, not only on the headline heavy hitter.
	for i := 0; i < opts.ColdTopics; i++ {
		topic := coldTopic(i)
		rank, est := rankOf(topic)
		p50, err := quantErr(topic, 0.50)
		if err != nil {
			return acc, err
		}
		p99, err := quantErr(topic, 0.99)
		if err != nil {
			return acc, err
		}
		if p99 >= acc.worstColdP99Err {
			acc.worstColdRank = rank
			acc.worstColdShare = 100 * counts[topic] / total
			acc.worstColdCountErr = pctErr(est, counts[topic])
			acc.worstColdP50Err = p50
			acc.worstColdP99Err = p99
		}
	}
	return acc, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// e15SampledOutAllocs measures the recorder's steady-state sampled-out path:
// a healthy record on a warm topic that the exemplar sampler drops. The
// contract is zero allocations — observability that taxes the hot path per
// request gets turned off in production.
func e15SampledOutAllocs() float64 {
	rec := reqlog.New(reqlog.Options{
		SampleEvery: 1 << 30, // never keep a healthy exemplar
		Registry:    obs.NewRegistry(),
	})
	r := reqlog.Record{
		Time:    time.Unix(0, 0),
		Kind:    reqlog.KindServer,
		Topic:   "svc/warm",
		Outcome: reqlog.OutcomeOK,
		Latency: 2 * time.Millisecond,
	}
	rec.Record(r) // warm: the topic's histogram and its top-k slot
	return testing.AllocsPerRun(2000, func() { rec.Record(r) })
}

// e15ThroughputPair measures a closed-loop endpoint workload with the
// server-side recorder off and on, interleaving trials and keeping each
// mode's best — the stable way to read a sub-microsecond per-request
// overhead through scheduler noise.
func e15ThroughputPair(opts E15Options) (off, on float64, err error) {
	for t := 0; t < opts.Trials; t++ {
		a, err := e15Throughput(false, opts.Duration)
		if err != nil {
			return 0, 0, err
		}
		if a > off {
			off = a
		}
		b, err := e15Throughput(true, opts.Duration)
		if err != nil {
			return 0, 0, err
		}
		if b > on {
			on = b
		}
	}
	return off, on, nil
}

// e15Throughput runs one closed-loop trial: a single caller issuing
// back-to-back requests at an unloaded in-memory server, with or without a
// wide-event recorder attached, returning requests per second.
func e15Throughput(withLog bool, duration time.Duration) (float64, error) {
	tr := transport.NewMem(transport.NewFabric())
	l, err := tr.Listen("srv")
	if err != nil {
		return 0, err
	}
	sopts := endpoint.ServerOptions{Name: "srv", Metrics: obs.NewRegistry()}
	if withLog {
		sopts.ReqLog = reqlog.New(reqlog.Options{Registry: obs.NewRegistry()})
	}
	srv := endpoint.NewServer(l, sopts)
	defer srv.Close() //nolint:errcheck
	srv.Handle("work", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Kind: wire.KindReply}, nil
	})
	caller, err := endpoint.NewCaller(tr, "srv", endpoint.CallerOptions{Eager: true})
	if err != nil {
		return 0, err
	}
	defer caller.Close() //nolint:errcheck

	payload := make([]byte, 64)
	// Warm the connection and (with the recorder on) the topic slot.
	for i := 0; i < 64; i++ {
		if _, err := caller.Do(&endpoint.Call{Topic: "work", Payload: payload, Timeout: endpoint.NoTimeout}); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	ops := 0
	for time.Since(start) < duration {
		for i := 0; i < 32; i++ {
			if _, err := caller.Do(&endpoint.Call{Topic: "work", Payload: payload, Timeout: endpoint.NoTimeout}); err != nil {
				return 0, err
			}
			ops++
		}
	}
	return float64(ops) / time.Since(start).Seconds(), nil
}
