package experiments

import (
	"fmt"
	"time"

	"ndsm/internal/discovery"
	"ndsm/internal/discovery/cluster"
	"ndsm/internal/netmux"
	"ndsm/internal/netsim"
	"ndsm/internal/obs"
	"ndsm/internal/routing"
	"ndsm/internal/sketch"
	"ndsm/internal/stats"
	"ndsm/internal/svcdesc"
	"ndsm/internal/transport"
)

// radioNode is one stacked simulated node: mux, geographic router, and —
// on an endpoint, not a relay — a sim transport riding the router: the stack
// centralized discovery uses to reach a registry across multiple radio hops.
type radioNode struct {
	id     netsim.NodeID
	mux    *netmux.Mux
	router *routing.Router
	tr     *transport.Sim
}

func (rn *radioNode) close() {
	if rn.tr != nil {
		_ = rn.tr.Close()
	}
	if rn.router != nil {
		rn.router.Close()
	}
	if rn.mux != nil {
		rn.mux.Close()
	}
}

// buildRadioNode stacks mux → router(geographic) on a node, and a sim
// transport on top when the node is an endpoint; a relay needs no transport.
func buildRadioNode(net *netsim.Network, id netsim.NodeID, endpoint bool) (*radioNode, error) {
	mux, err := netmux.New(net, id)
	if err != nil {
		return nil, err
	}
	router, err := routing.NewWithSource(net, id, routing.Geographic{}, mux.Channel(0xAB))
	if err != nil {
		mux.Close()
		return nil, err
	}
	rn := &radioNode{id: id, mux: mux, router: router}
	if endpoint {
		if rn.tr, err = transport.NewSim(router, id, nil); err != nil {
			rn.close()
			return nil, err
		}
	}
	return rn, nil
}

// gridNet builds an n-node grid (spacing 10 m, range 12 m) with unlimited
// energy, so message counts are the only cost metric.
func gridNet(n int) (*netsim.Network, []netsim.NodeID, error) {
	net := netsim.New(netsim.Config{Range: 12, Unlimited: true})
	ids, err := netsim.GridField(net, "n", n, 10)
	if err != nil {
		net.Close()
		return nil, nil, err
	}
	return net, ids, nil
}

// registryCluster starts a size-member registry cluster, "registry0"
// onwards, each member on its own mem transport on fabric. The returned
// func closes every member whose slot the caller has not set to nil.
func registryCluster(fabric *transport.Fabric, size int) ([]string, []*cluster.Node, func(), error) {
	members := make([]string, size)
	for i := range members {
		members[i] = fmt.Sprintf("registry%d", i)
	}
	var nodes []*cluster.Node
	closeAll := func() {
		for _, n := range nodes {
			if n != nil {
				_ = n.Close()
			}
		}
	}
	for _, id := range members {
		tr := transport.NewMem(fabric)
		l, err := tr.Listen(id)
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		n, err := cluster.NewNode(tr, l, cluster.NodeOptions{Self: id, Members: members})
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		nodes = append(nodes, n)
	}
	return members, nodes, closeAll, nil
}

func bpService(provider string) *svcdesc.Description {
	return &svcdesc.Description{
		Name:        "sensor/bp",
		Provider:    provider,
		Reliability: 0.9,
		PowerLevel:  1,
	}
}

// e1 compares centralized vs distributed discovery: radio messages and
// latency per lookup as the network grows.
func e1(quick bool) (Result, error) {
	// 200 lookups per cluster size give a stable p50 on a microsecond-scale
	// path, and the ≥10x cached-vs-wire bar needs that sample in quick mode
	// too.
	const clusterLookups = 200
	lookups := pick(quick, 2, 5)
	table := stats.NewTable("E1: discovery cost vs network size",
		"nodes", "organization", "radio msgs/lookup", "latency ms", "found")
	for _, n := range pick(quick, []int{9, 16}, []int{9, 25, 49}) {
		msgs, lat, found, err := e1Distributed(n, lookups)
		if err != nil {
			return Result{}, fmt.Errorf("E1 distributed n=%d: %w", n, err)
		}
		table.AddRow(n, "distributed (flood)", msgs, lat, found)

		msgs, lat, found, err = e1Centralized(n, lookups)
		if err != nil {
			return Result{}, fmt.Errorf("E1 centralized n=%d: %w", n, err)
		}
		table.AddRow(n, "centralized (registry)", msgs, lat, found)
	}

	clusterTbl := stats.NewTable("E1b: registry cluster lookup path",
		"cluster size", "wire p50 µs", "cached p50 µs", "speedup x", "cache hit %")
	notes := []string{
		"Flood cost grows with N (every node rebroadcasts the query once);",
		"centralized cost grows only with the hop distance to the registry.",
		"E1b: steady-state lookups against a replicated registry cluster,",
		"quorum scatter-gather over the wire vs the client-side lease cache.",
	}
	for _, size := range []int{1, 3, 5} {
		wire, cachedP50, hit, err := e1Cluster(size, clusterLookups)
		if err != nil {
			return Result{}, fmt.Errorf("E1 cluster size=%d: %w", size, err)
		}
		speedup := 0.0
		if cachedP50 > 0 {
			speedup = wire / cachedP50
		}
		clusterTbl.AddRow(size, wire, cachedP50, speedup, hit)
		if speedup < 10 {
			notes = append(notes, fmt.Sprintf(
				"UNEXPECTED: cluster size %d cached p50 only %.1fx faster than wire (want >=10x).",
				size, speedup))
		}
	}
	return Result{
		ID:     "E1",
		Title:  "Discovery: message cost and latency vs network size",
		Tables: []*stats.Table{table, clusterTbl},
		Notes:  notes,
	}, nil
}

// e1Cluster measures the two steady-state lookup paths against a registry
// cluster of the given size on an in-memory fabric: the quorum scatter-gather
// wire path, and the client lease cache serving fresh hits locally. Returns
// the two p50s (µs) and the cache hit rate (%).
func e1Cluster(size, lookups int) (wireP50, cachedP50, hitRate float64, err error) {
	fabric := transport.NewFabric()
	members, _, closeCluster, err := registryCluster(fabric, size)
	if err != nil {
		return 0, 0, 0, err
	}
	defer closeCluster()

	res, err := cluster.NewResolver(transport.NewMem(fabric), cluster.ResolverOptions{Members: members})
	if err != nil {
		return 0, 0, 0, err
	}
	defer res.Close() //nolint:errcheck
	metrics := obs.NewRegistry()
	cached := discovery.NewCached(res, discovery.CacheOptions{TTL: time.Hour, Metrics: metrics})
	defer cached.Close() //nolint:errcheck

	for i := 0; i < 8; i++ {
		if err := cached.Register(bpService(fmt.Sprintf("sup%d", i))); err != nil {
			return 0, 0, 0, err
		}
	}
	q := &svcdesc.Query{Name: "sensor/bp"}
	if _, err := cached.Lookup(q); err != nil { // prime the cache
		return 0, 0, 0, err
	}

	var wire, local sketch.Hist // microseconds
	for i := 0; i < lookups; i++ {
		start := time.Now()
		if _, err := res.Lookup(q); err != nil {
			return 0, 0, 0, err
		}
		wire.Add(float64(time.Since(start)) / float64(time.Microsecond))
	}
	for i := 0; i < lookups; i++ {
		start := time.Now()
		if _, err := cached.Lookup(q); err != nil {
			return 0, 0, 0, err
		}
		local.Add(float64(time.Since(start)) / float64(time.Microsecond))
	}

	hits := metrics.Counter("discovery.cache.hits").Value()
	misses := metrics.Counter("discovery.cache.misses").Value()
	if total := hits + misses; total > 0 {
		hitRate = 100 * float64(hits) / float64(total)
	}
	return wire.Quantile(0.5), local.Quantile(0.5), hitRate, nil
}

// e1Distributed floods lookups from corner 0 for a service at the far
// corner.
func e1Distributed(n, lookups int) (msgs float64, latency float64, found bool, err error) {
	net, ids, err := gridNet(n)
	if err != nil {
		return 0, 0, false, err
	}
	defer net.Close()
	var agents []*discovery.Agent
	for _, id := range ids {
		mux, err := netmux.New(net, id)
		if err != nil {
			return 0, 0, false, err
		}
		defer mux.Close()
		a := discovery.NewAgent(mux, discovery.AgentConfig{
			QueryTTL:      16,
			CollectWindow: 120 * time.Millisecond,
			MaxResults:    1,
		})
		defer a.Close() //nolint:errcheck
		agents = append(agents, a)
	}
	if err := agents[n-1].Register(bpService(string(ids[n-1]))); err != nil {
		return 0, 0, false, err
	}
	// Allow in-flight rebroadcasts to finish before counting.
	return e1Lookups(net, agents[0].Lookup, lookups, 50*time.Millisecond)
}

// e1Centralized runs a registry at the grid center over the routed sim
// transport and looks up from corner 0.
func e1Centralized(n, lookups int) (msgs float64, latency float64, found bool, err error) {
	net, ids, err := gridNet(n)
	if err != nil {
		return 0, 0, false, err
	}
	defer net.Close()

	var nodes []*radioNode
	defer func() {
		for _, rn := range nodes {
			rn.close()
		}
	}()
	// Corner 0, the center and the far corner are endpoints; the rest relay.
	need := map[netsim.NodeID]bool{ids[0]: true, ids[n/2]: true, ids[n-1]: true}
	byID := make(map[netsim.NodeID]*radioNode)
	for _, id := range ids {
		rn, err := buildRadioNode(net, id, need[id])
		if err != nil {
			return 0, 0, false, err
		}
		nodes = append(nodes, rn)
		byID[id] = rn
	}

	registryNode := byID[ids[n/2]]
	l, err := registryNode.tr.Listen(string(registryNode.id))
	if err != nil {
		return 0, 0, false, err
	}
	srv := discovery.NewServer(discovery.NewStore(nil, 0), l)
	defer srv.Close() //nolint:errcheck

	// The supplier at the far corner registers over the radio.
	supplier := discovery.NewClient(byID[ids[n-1]].tr, string(registryNode.id))
	defer supplier.Close() //nolint:errcheck
	if err := supplier.Register(bpService(string(ids[n-1]))); err != nil {
		return 0, 0, false, err
	}

	client := discovery.NewClient(byID[ids[0]].tr, string(registryNode.id))
	defer client.Close() //nolint:errcheck
	return e1Lookups(net, client.Lookup, lookups, 0)
}

// e1Lookups times lookups for the service and returns the radio messages
// and milliseconds per lookup, counting messages until settle has passed
// after the last one.
func e1Lookups(net *netsim.Network, lookup func(*svcdesc.Query) ([]*svcdesc.Description, error),
	lookups int, settle time.Duration) (msgs float64, latency float64, found bool, err error) {
	var spent time.Duration
	before := net.Counters()["sent"]
	for i := 0; i < lookups; i++ {
		start := time.Now()
		descs, err := lookup(&svcdesc.Query{Name: "sensor/bp"})
		if err != nil {
			return 0, 0, false, err
		}
		spent += time.Since(start)
		found = len(descs) > 0
	}
	time.Sleep(settle)
	total := net.Counters()["sent"] - before
	return float64(total) / float64(lookups), spent.Seconds() * 1e3 / float64(lookups), found, nil
}

// e2 shows the adaptive organization tracking the better mode as the
// environment changes: density decides when the registry is healthy, and the
// agent falls back to flooding when the registry dies.
func e2(quick bool) (Result, error) {
	lookups := pick(quick, 2, 6)
	table := stats.NewTable("E2: adaptive discovery mode selection",
		"scenario", "density", "registry", "mode chosen", "lookups ok")

	type scenario struct {
		name       string
		density    int
		registryUp bool
	}
	for _, sc := range []scenario{
		{"dense, registry up", 10, true},
		{"sparse, registry up", 2, true},
		{"dense, registry down", 10, false},
	} {
		mode, ok, err := e2Scenario(sc.density, sc.registryUp, lookups)
		if err != nil {
			return Result{}, fmt.Errorf("E2 %s: %w", sc.name, err)
		}
		reg := "up"
		if !sc.registryUp {
			reg = "down"
		}
		table.AddRow(sc.name, sc.density, reg, mode, fmt.Sprintf("%d/%d", ok, lookups))
	}
	for _, size := range []int{1, 3, 5} {
		mode, ok, err := e2ClusterScenario(size, lookups)
		if err != nil {
			return Result{}, fmt.Errorf("E2 cluster(%d): %w", size, err)
		}
		name := fmt.Sprintf("dense, cluster(%d), member down", size)
		table.AddRow(name, 10, "1 member down", mode, fmt.Sprintf("%d/%d", ok, lookups))
	}
	return Result{
		ID:     "E2",
		Title:  "Adaptive discovery: centralized when dense+healthy, flooding otherwise",
		Tables: []*stats.Table{table},
		Notes: []string{
			"Policy: DensityPolicy(6). Lookups keep succeeding when the registry dies —",
			"the adaptive organization degrades to flooding instead of failing.",
			"Cluster rows kill one registry member: a single-node 'cluster' degrades",
			"to flooding like the classic registry, while 3 and 5 members keep the",
			"lookup quorum and the adaptive layer stays on the centralized path.",
		},
	}, nil
}

// e2ClusterScenario runs the adaptive stack with a registry cluster as its
// centralized side and one member killed: with enough members the lookup
// quorum survives and the policy stays central; a 1-member cluster behaves
// like the dead classic registry and the agent floods.
func e2ClusterScenario(size, lookups int) (mode string, okCount int, err error) {
	// Cluster registry over mem transport (infrastructure network).
	fabric := transport.NewFabric()
	members, nodes, closeCluster, err := registryCluster(fabric, size)
	if err != nil {
		return "", 0, err
	}
	defer closeCluster()
	central, err := cluster.NewResolver(transport.NewMem(fabric), cluster.ResolverOptions{Members: members})
	if err != nil {
		return "", 0, err
	}
	if err := central.Register(bpService("s")); err != nil {
		return "", 0, err
	}
	central.SetCallTimeout(50*time.Millisecond, nil)

	// One member dies. Replication (RF 2, clamped to 1 for the single-member
	// cluster) and the N-RF+1 lookup quorum decide whether the centralized
	// path survives it.
	_ = nodes[0].Close()
	nodes[0] = nil
	return e2Adaptive(central, 10, lookups)
}

func e2Scenario(density int, registryUp bool, lookups int) (mode string, okCount int, err error) {
	// Central registry over mem transport (infrastructure network).
	var central discovery.Resolver
	fabric := transport.NewFabric()
	mem := transport.NewMem(fabric)
	defer mem.Close() //nolint:errcheck
	if registryUp {
		l, err := mem.Listen("registry")
		if err != nil {
			return "", 0, err
		}
		srv := discovery.NewServer(discovery.NewStore(nil, 0), l)
		defer srv.Close() //nolint:errcheck
		cli := discovery.NewClient(transport.NewMem(fabric), "registry")
		if err := cli.Register(bpService("s")); err != nil {
			return "", 0, err
		}
		central = cli
	} else {
		// A client pointed at a dead address.
		central = discovery.NewClient(transport.NewMem(fabric), "registry-gone")
	}
	return e2Adaptive(central, density, lookups)
}

// e2Adaptive runs lookups through the adaptive organization, with central
// as its centralized side and flooding on a 3-node radio line (querier,
// supplier neighbour, spare) as the other, and reports the mode it chose
// more often and how many lookups found the service.
func e2Adaptive(central discovery.Resolver, density, lookups int) (mode string, okCount int, err error) {
	net := netsim.New(netsim.Config{Range: 12, Unlimited: true})
	defer net.Close()
	ids := []netsim.NodeID{"q", "s", "r"}
	for i, id := range ids {
		if err := net.AddNode(id, netsim.Position{X: float64(i) * 10}); err != nil {
			return "", 0, err
		}
	}
	var agents []*discovery.Agent
	for _, id := range ids {
		mux, err := netmux.New(net, id)
		if err != nil {
			return "", 0, err
		}
		defer mux.Close()
		a := discovery.NewAgent(mux, discovery.AgentConfig{CollectWindow: 100 * time.Millisecond, MaxResults: 1})
		defer a.Close() //nolint:errcheck
		agents = append(agents, a)
	}
	if err := agents[1].Register(bpService("s")); err != nil {
		return "", 0, err
	}

	ad := discovery.NewAdaptive(central, agents[0], func() int { return density }, discovery.DensityPolicy(6), nil)
	for i := 0; i < lookups; i++ {
		descs, err := ad.Lookup(&svcdesc.Query{Name: "sensor/bp"})
		if err == nil && len(descs) > 0 {
			okCount++
		}
	}
	dec := ad.Decisions.Snapshot()
	if dec[string(discovery.ModeCentral)] >= dec[string(discovery.ModeFlood)] {
		mode = string(discovery.ModeCentral)
	} else {
		mode = string(discovery.ModeFlood)
	}
	return mode, okCount, nil
}
