// Command ndsm-node runs a middleware node over TCP: it hosts services
// described in a JSON config (serving synthetic sensor streams or echo
// handlers) against an ndsm-registry, or performs one-shot lookups.
//
// Serve:
//
//	ndsm-node -registry 127.0.0.1:7400 -listen 127.0.0.1:7500 -config node.json
//
// with node.json like:
//
//	{
//	  "services": [
//	    {"name": "sensor/bp", "kind": "bloodpressure", "reliability": 0.95,
//	     "attributes": {"unit": "mmHg"}, "x": 10, "y": 20}
//	  ]
//	}
//
// Lookup:
//
//	ndsm-node -registry 127.0.0.1:7400 -lookup "sensor/*"
//	ndsm-node -registry 127.0.0.1:7400 -lookup sensor/bp -call
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ndsm/internal/core"
	"ndsm/internal/discovery"
	"ndsm/internal/discovery/cluster"
	"ndsm/internal/endpoint"
	"ndsm/internal/flightrec"
	"ndsm/internal/obs"
	"ndsm/internal/qos"
	"ndsm/internal/recovery"
	"ndsm/internal/reqlog"
	"ndsm/internal/sensors"
	"ndsm/internal/slo"
	"ndsm/internal/svcdesc"
	"ndsm/internal/telemetry"
	"ndsm/internal/trace"
	"ndsm/internal/transport"
	"ndsm/internal/webbridge"
)

// serviceConfig is one hosted service in the JSON config.
type serviceConfig struct {
	Name        string            `json:"name"`
	Kind        string            `json:"kind"` // bloodpressure|heartrate|temperature|accelerometer|echo
	Reliability float64           `json:"reliability"`
	Attributes  map[string]string `json:"attributes"`
	X           float64           `json:"x"`
	Y           float64           `json:"y"`
	TTLSeconds  int               `json:"ttlSeconds"`
}

type nodeConfig struct {
	Services []serviceConfig `json:"services"`
}

func main() {
	registry := flag.String("registry", "127.0.0.1:7400", "ndsm-registry address")
	registryCluster := flag.String("registry-cluster", "", "comma-separated registry cluster member addresses; overrides -registry")
	listen := flag.String("listen", "127.0.0.1:7500", "this node's service address")
	config := flag.String("config", "", "JSON config of services to host")
	lookup := flag.String("lookup", "", "one-shot lookup of a service name pattern")
	call := flag.Bool("call", false, "with -lookup: bind best supplier and request one sample")
	httpAddr := flag.String("http", "", "also serve the HTTP bridge (GET /services, POST /call/<svc>, GET /metrics) on this address")
	traced := flag.Bool("trace", false, "collect this node's causal spans; the HTTP bridge serves them at GET /trace")
	renewEvery := flag.Duration("renew", 10*time.Second, "lease renewal interval")
	walPath := flag.String("wal", "", "journal service registrations to this write-ahead log file")
	pprofOn := flag.Bool("pprof", false, "expose Go profiling endpoints at /debug/pprof/ on the HTTP bridge (opt-in)")
	aggregate := flag.Bool("aggregate", false, "host a telemetry aggregator on this node's listener; the HTTP bridge serves GET /cluster and GET /dash")
	publish := flag.String("publish", "", "publish this node's telemetry reports in-band to the aggregator node at this address")
	publishEvery := flag.Duration("publish-every", 5*time.Second, "telemetry publish interval (with -publish)")
	sloOn := flag.Bool("slo", false, "with -aggregate: run the burn-rate SLO engine over the aggregated telemetry; the HTTP bridge serves GET /alerts and GET /flight")
	sloConfig := flag.String("slo-config", "", "JSON array of declarative SLO objectives (implies -slo; default: the built-in freshness and telemetry-reject objectives)")
	sloWindow := flag.Duration("slo-window", time.Minute, "long burn window for the built-in objectives (with -slo)")
	reqlogOn := flag.Bool("reqlog", false, "record one wide event per request with tail sampling; the HTTP bridge serves GET /requests and GET /topk, and -publish ships sketch digests")
	reqlogSample := flag.Int("reqlog-sample", 0, "keep 1 in N healthy requests as exemplars (with -reqlog; default 64)")
	topicLanes := flag.String("topic-lanes", "", "JSON object mapping topic patterns (trailing * for prefixes) to admission lanes for this node's outbound calls")
	flag.Parse()
	// The program owns the node's one registry and, with -trace, one tracer,
	// and hands them to every component it builds.
	opts := serveOptions{
		Metrics:      obs.NewRegistry(),
		HTTPAddr:     *httpAddr,
		WALPath:      *walPath,
		RenewEvery:   *renewEvery,
		Pprof:        *pprofOn,
		Aggregate:    *aggregate,
		PublishTo:    *publish,
		PublishEvery: *publishEvery,
		SLO:          *sloOn || *sloConfig != "",
		SLOConfig:    *sloConfig,
		SLOWindow:    *sloWindow,
		ReqLog:       *reqlogOn,
		ReqLogSample: *reqlogSample,
		TopicLanes:   *topicLanes,
	}
	opts.RegistryCluster = *registryCluster
	if *traced {
		opts.Tracer = trace.New(trace.Options{Name: *listen})
	}
	if err := run(*registry, *listen, *config, *lookup, *call, opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// serveOptions carries serve's optional subsystems: the HTTP bridge, the
// registration WAL, and the telemetry plane's two roles (aggregator host
// and report publisher), and the registry and tracer (nil without -trace)
// every component shares.
type serveOptions struct {
	Metrics      *obs.Registry
	Tracer       *trace.Tracer
	HTTPAddr     string
	WALPath      string
	RenewEvery   time.Duration
	Pprof        bool
	Aggregate    bool
	PublishTo    string
	PublishEvery time.Duration
	// RegistryCluster lists registry cluster member addresses; when set the
	// node resolves through the quorum scatter-gather cluster resolver with a
	// client-side lookup cache instead of a single central client.
	RegistryCluster string
	// SLO runs the burn-rate engine (and a flight recorder) over the hosted
	// aggregator's series; SLOConfig optionally replaces the built-in
	// objectives with a declarative JSON set, and SLOWindow sizes the
	// built-ins' long window.
	SLO       bool
	SLOConfig string
	SLOWindow time.Duration
	// ReqLog enables the per-request wide-event recorder (GET /requests and
	// GET /topk on the bridge, digests in published reports, the tail ring in
	// flight bundles); ReqLogSample is its healthy-request keep rate (1-in-N,
	// 0 for the default).
	ReqLog       bool
	ReqLogSample int
	// TopicLanes is a JSON file mapping topic patterns to admission lanes,
	// applied to the node's outbound binding calls.
	TopicLanes string
}

func run(registryAddr, listen, configPath, lookup string, call bool, opts serveOptions) error {
	// Instrument makes every TCP connection feed the node's metrics
	// registry, surfaced over the HTTP bridge's GET /metrics.
	tr := transport.Instrument(transport.NewTCP(nil), opts.Metrics)
	defer tr.Close() //nolint:errcheck
	var registry discovery.Resolver
	if opts.RegistryCluster != "" {
		var members []string
		for _, m := range strings.Split(opts.RegistryCluster, ",") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		cres, err := cluster.NewResolver(tr, cluster.ResolverOptions{Members: members, Metrics: opts.Metrics, Tracer: opts.Tracer})
		if err != nil {
			return err
		}
		// Steady-state lookups are local cache hits that revalidate in the
		// background; writes still fan out to the replica owners.
		registry = discovery.NewCached(cres, discovery.CacheOptions{
			TTL:      10 * time.Second,
			StaleFor: 30 * time.Second,
			Metrics:  opts.Metrics,
		})
		fmt.Printf("resolving through %d-member registry cluster\n", len(members))
	} else {
		registry = discovery.NewInstrumentedClient(tr, registryAddr, opts.Metrics, opts.Tracer)
	}
	defer registry.Close() //nolint:errcheck

	if lookup != "" {
		return doLookup(tr, registry, listen, lookup, call, opts)
	}
	if configPath == "" {
		return fmt.Errorf("need -config to serve or -lookup to query")
	}
	return serve(tr, registry, listen, configPath, opts)
}

func doLookup(tr transport.Transport, registry discovery.Resolver, listen, pattern string, call bool, opts serveOptions) error {
	descs, err := registry.Lookup(&svcdesc.Query{Name: pattern})
	if err != nil {
		return err
	}
	if len(descs) == 0 {
		fmt.Println("no services found")
		return nil
	}
	for _, d := range descs {
		loc := ""
		if d.Location != nil {
			loc = fmt.Sprintf(" @(%.0f,%.0f)", d.Location.X, d.Location.Y)
		}
		fmt.Printf("%-24s provider=%s reliability=%.2f%s\n", d.Name, d.Provider, d.Reliability, loc)
	}
	if !call {
		return nil
	}
	node, err := core.NewNode(core.Config{Name: listen, Transport: tr, Registry: registry, Metrics: opts.Metrics, Tracer: opts.Tracer})
	if err != nil {
		return err
	}
	defer node.Close() //nolint:errcheck
	binding, err := node.Bind(&qos.Spec{Query: svcdesc.Query{Name: pattern}}, core.BindOptions{})
	if err != nil {
		return err
	}
	defer binding.Close() //nolint:errcheck
	out, err := binding.Request([]byte("read"))
	if err != nil {
		return err
	}
	fmt.Printf("sample from %s: %s\n", binding.Peer(), out)
	return nil
}

func serve(tr transport.Transport, registry discovery.Resolver, listen, configPath string, opts serveOptions) error {
	raw, err := os.ReadFile(configPath)
	if err != nil {
		return err
	}
	var cfg nodeConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("parse %s: %w", configPath, err)
	}
	if len(cfg.Services) == 0 {
		return fmt.Errorf("%s declares no services", configPath)
	}

	// Optional registration journal (§3.8 recovery system): every service this
	// node registers is appended as a durable RecordOp, so an operator can
	// reconstruct what the node had advertised before a crash.
	var wal *recovery.WAL
	if opts.WALPath != "" {
		wal, err = recovery.OpenWAL(opts.WALPath, recovery.WALOptions{SyncEveryAppend: true, Metrics: opts.Metrics})
		if err != nil {
			return err
		}
		defer wal.Close() //nolint:errcheck
		prior := 0
		if err := wal.Replay(func(recovery.Record) error { prior++; return nil }); err != nil {
			return err
		}
		fmt.Printf("wal %s: %d prior registration records\n", opts.WALPath, prior)
	}

	// Request analytics plane: the recorder lands one wide event per dispatch,
	// shed, and binding call, with tail-based retention. The lane table is
	// parsed before the node exists so a bad config fails fast.
	var rec *reqlog.Recorder
	if opts.ReqLog {
		sample := opts.ReqLogSample
		if sample <= 0 {
			sample = 64 // the recorder's own default, echoed for the log line
		}
		rec = reqlog.New(reqlog.Options{SampleEvery: sample, Registry: opts.Metrics})
		fmt.Printf("request analytics on (healthy sample 1-in-%d)\n", sample)
	}
	var lanes *endpoint.LaneTable
	if opts.TopicLanes != "" {
		raw, err := os.ReadFile(opts.TopicLanes)
		if err != nil {
			return err
		}
		if lanes, err = endpoint.ParseTopicLanes(raw); err != nil {
			return fmt.Errorf("parse %s: %w", opts.TopicLanes, err)
		}
		fmt.Printf("topic-lane table: %d rules\n", lanes.Len())
	}

	node, err := core.NewNode(core.Config{
		Name: listen, Transport: tr, Registry: registry,
		Metrics: opts.Metrics, Tracer: opts.Tracer,
		ReqLog: rec, TopicLanes: lanes,
	})
	if err != nil {
		return err
	}
	defer node.Close() //nolint:errcheck

	for _, sc := range cfg.Services {
		handler, err := handlerFor(sc.Kind)
		if err != nil {
			return err
		}
		desc := &svcdesc.Description{
			Name:        sc.Name,
			Provider:    listen,
			Reliability: sc.Reliability,
			PowerLevel:  1,
			Attributes:  sc.Attributes,
			TTL:         time.Duration(sc.TTLSeconds) * time.Second,
		}
		if sc.X != 0 || sc.Y != 0 {
			desc.Location = &svcdesc.Location{X: sc.X, Y: sc.Y}
		}
		if desc.Reliability == 0 {
			desc.Reliability = 0.9
		}
		if err := node.Serve(desc, handler); err != nil {
			return err
		}
		if wal != nil {
			payload, err := svcdesc.MarshalDescription(desc)
			if err != nil {
				return err
			}
			if _, err := wal.Append(recovery.Record{
				Type:  recovery.RecordOp,
				OpKey: desc.Name,
				Data:  payload,
			}); err != nil {
				return err
			}
		}
		fmt.Printf("serving %s (%s) on %s\n", sc.Name, sc.Kind, listen)
	}

	// Telemetry plane. -aggregate turns this node into the cluster's
	// collection point: reports arrive as requests on the node's existing
	// listener (no extra port, no side protocol) and the HTTP bridge serves
	// the merged view. -publish makes this node a reporter, shipping its
	// metrics delta in-band to whichever node aggregates.
	var agg *telemetry.Aggregator
	if opts.Aggregate {
		agg = telemetry.NewAggregator(telemetry.AggregatorOptions{
			StaleAfter: 3 * opts.PublishEvery,
			Registry:   opts.Metrics,
		})
		node.HandleTopic(telemetry.Topic, agg.Handler())
		fmt.Printf("telemetry aggregator on %s (topic %s)\n", listen, telemetry.Topic)
	}
	if opts.PublishTo != "" {
		caller, err := endpoint.NewCaller(tr, opts.PublishTo, endpoint.CallerOptions{Redial: true})
		if err != nil {
			return fmt.Errorf("telemetry caller: %w", err)
		}
		defer caller.Close() //nolint:errcheck
		pub, err := telemetry.NewPublisher(telemetry.PublisherOptions{
			Node:     listen,
			Registry: opts.Metrics,
			Spans:    opts.Tracer.Collector(),
			ReqLog:   rec,
			Interval: opts.PublishEvery,
			Send:     telemetry.CallerSend(caller, listen, opts.PublishTo, 0),
		})
		if err != nil {
			return fmt.Errorf("telemetry publisher: %w", err)
		}
		pub.Start()
		defer pub.Close() //nolint:errcheck
		fmt.Printf("publishing telemetry to %s every %v\n", opts.PublishTo, opts.PublishEvery)
	}

	// Alerting plane. The SLO engine judges the hosted aggregator's series
	// on a fixed cadence; critical transitions cut a flight-recorder bundle
	// (recent spans, metrics delta, per-node freshness) the bridge serves at
	// GET /flight for post-mortems.
	var eng *slo.Engine
	var flight *flightrec.Recorder
	if opts.SLO {
		if agg == nil {
			return fmt.Errorf("-slo needs -aggregate: the engine judges the aggregated telemetry")
		}
		eng, err = slo.New(slo.Options{Aggregator: agg, Registry: opts.Metrics})
		if err != nil {
			return err
		}
		defer eng.Close() //nolint:errcheck
		objectives := slo.DefaultObjectives(opts.SLOWindow)
		if opts.SLOConfig != "" {
			raw, err := os.ReadFile(opts.SLOConfig)
			if err != nil {
				return err
			}
			if objectives, err = slo.ParseObjectives(raw); err != nil {
				return err
			}
		}
		for _, o := range objectives {
			if err := eng.Add(o); err != nil {
				return fmt.Errorf("slo objective %q: %w", o.Name, err)
			}
		}
		flight = flightrec.NewRecorder(flightrec.Options{
			MinInterval: opts.PublishEvery,
			Spans:       opts.Tracer.Collector(),
			Metrics:     opts.Metrics,
			Aggregator:  agg,
			ReqLog:      rec,
		})
		eng.Alerts().Notify(func(t slo.Transition) {
			if t.To != slo.Critical {
				return
			}
			flight.Snapshot(flightrec.Trigger{
				Objective: t.Objective,
				Node:      t.Node,
				Severity:  t.To.String(),
				Windows: map[string]float64{
					"burnLong":    t.BurnLong,
					"burnShort":   t.BurnShort,
					"badFraction": t.BadFraction,
				},
			})
			fmt.Fprintf(os.Stderr, "SLO CRITICAL %s node=%s burnLong=%.2f burnShort=%.2f\n",
				t.Objective, t.Node, t.BurnLong, t.BurnShort)
		})
		eng.Start(opts.PublishEvery)
		fmt.Printf("slo engine: %d objectives, evaluating every %v\n", len(objectives), opts.PublishEvery)
	}

	// Runtime introspection gauges ride the node's registry whether or not
	// the bridge is up: a -publish node ships them in its reports. The
	// bridge's /metrics refreshes them through this same sampler, the
	// registry's one.
	sampleRuntime := obs.RuntimeGauges(opts.Metrics)

	// Optional embedded web server (§2 of the paper: HTTP access to the
	// middleware from browsers and plain web clients).
	var httpSrv *http.Server
	if opts.HTTPAddr != "" {
		bridge := webbridge.New(registry, node)
		defer bridge.Close() //nolint:errcheck
		bridge.SetMetricsRegistry(opts.Metrics)
		bridge.SetTraceCollector(opts.Tracer.Collector())
		bridge.EnableRuntimeMetrics()
		if agg != nil {
			bridge.SetAggregator(agg)
		}
		if eng != nil {
			bridge.SetSLO(eng)
			bridge.SetFlightRecorder(flight)
		}
		if rec != nil {
			bridge.SetReqLog(rec)
		}
		if opts.Pprof {
			bridge.EnablePprof()
			fmt.Printf("pprof enabled at /debug/pprof/ on %s\n", opts.HTTPAddr)
		}
		httpSrv = webbridge.NewHTTPServer(opts.HTTPAddr, bridge)
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "http bridge: %v\n", err)
			}
		}()
		fmt.Printf("http bridge on %s (GET /services, POST /call/<svc>, GET /metrics, GET /healthz, GET /trace, GET /cluster, GET /dash, GET /alerts, GET /flight)\n", opts.HTTPAddr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(opts.RenewEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// Refresh the runtime gauges on the renewal beat so published
			// reports and /metrics reads stay near-current.
			sampleRuntime()
			if err := node.RenewLeases(); err != nil {
				fmt.Fprintf(os.Stderr, "lease renewal: %v\n", err)
			}
		case sig := <-stop:
			fmt.Printf("shutting down on %v\n", sig)
			if httpSrv != nil {
				// Drain in-flight HTTP exchanges before the node (and its
				// bindings) go away underneath them; give slow clients a
				// bounded grace period, then cut them off.
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				if err := httpSrv.Shutdown(ctx); err != nil {
					_ = httpSrv.Close()
				}
				cancel()
			}
			return nil
		}
	}
}

// handlerFor returns the request handler for a service kind.
func handlerFor(kind string) (core.Handler, error) {
	switch kind {
	case "echo", "":
		return func(p []byte) ([]byte, error) { return p, nil }, nil
	case "bloodpressure":
		g := sensors.BloodPressure(time.Now().UnixNano())
		return func([]byte) ([]byte, error) { return g.Next().Encode(), nil }, nil
	case "heartrate":
		g := sensors.HeartRate(time.Now().UnixNano())
		return func([]byte) ([]byte, error) { return g.Next().Encode(), nil }, nil
	case "temperature":
		g := sensors.Temperature(time.Now().UnixNano())
		return func([]byte) ([]byte, error) { return g.Next().Encode(), nil }, nil
	case "accelerometer":
		g := sensors.Accelerometer(time.Now().UnixNano())
		return func([]byte) ([]byte, error) { return g.Next().Encode(), nil }, nil
	default:
		return nil, fmt.Errorf("unknown service kind %q", kind)
	}
}
