package ndsm_test

import (
	"go/types"
	"sort"
	"testing"
)

// apiAllowlist names the exported functions and methods that no program
// reaches and that stay anyway, each with its one reason, keyed
// "package.Type.Method" or "package.Func". Anything else no program reaches
// is deleted with its tests.
var apiAllowlist = map[string]string{
	// Paper features no experiment or program exercises. EXPERIMENTS.md
	// lists each as built and unmeasured.
	"location.Service.Update":          "paper feature: §3.5 location service",
	"location.Service.Remove":          "paper feature: §3.5 location service",
	"location.Service.Within":          "paper feature: §3.5 location service",
	"location.Service.InLogicalArea":   "paper feature: §3.5 location service",
	"location.Service.Stale":           "paper feature: §3.5 location service",
	"netsim.Waypoint.Step":             "paper feature: §3.5 node mobility (random waypoint)",
	"location.Service.WillLeave":       "paper feature: §3.7 departure prediction",
	"scheduler.NewDepartureMonitor":    "paper feature: §3.7 departure hand-off",
	"scheduler.DepartureMonitor.Sweep": "paper feature: §3.7 departure hand-off",
	"scheduler.Dispatcher.Submit":      "paper feature: §3.7 priority dispatch",
	"scheduler.Dispatcher.Backlog":     "paper feature: §3.7 priority dispatch",
	"scheduler.Dispatcher.Shed":        "paper feature: §3.7 priority dispatch",
	"scheduler.Dispatcher.Stats":       "paper feature: §3.7 priority dispatch",
	"scheduler.Dispatcher.Stop":        "paper feature: §3.7 priority dispatch",
	"scheduler.TokenBucket.Available":  "paper feature: §3.7 bandwidth constraints (token bucket)",
	"transaction.Link.Send":            "paper feature: §3.6 per-connection ack and dedupe (Link)",
	"transaction.Link.SendReliable":    "paper feature: §3.6 per-connection ack and dedupe (Link)",
	"transaction.Link.Recv":            "paper feature: §3.6 per-connection ack and dedupe (Link)",
	"core.Binding.Poll":                "paper feature: §3.6 continuous transactions",
	"discovery.Agent.Tick":             "paper feature: §3.3 advertisement gossip",
	"core.Bus.Subscribe":               "paper feature: §3.1 kernel event manager",
	"tuplespace.Space.Rd":              "paper feature: §3.1 tuple-space read",
	"tuplespace.Client.Rd":             "paper feature: §3.1 tuple-space read",
	"tuplespace.Space.NotifyTake":      "paper feature: §3.1 tuple-space reaction",
	"pubsub.Client.Unsubscribe":        "paper feature: §3.1 publish/subscribe",
	"mq.Client.PushAsync":              "paper feature: §3.1 pipelined message-queue push",
	"rpc.Client.GoCall":                "paper feature: §3.1 pipelined RPC",
	"mq.PushHandle.Wait":               "paper feature: §3.1 pipelined message-queue push",

	// Test seams: how a test observes live behaviour.
	"simtime.Virtual.Pending":           "test seam: simtime.Virtual timers",
	"simtime.Virtual.AdvanceToNext":     "test seam: simtime.Virtual timers",
	"webbridge.Bridge.SetHealth":        "test seam: webbridge wiring",
	"recovery.WAL.NextLSN":              "test seam: WAL position",
	"transport.Sim.DroppedFrames":       "test seam: sim transport loss",
	"wire.BatchWriter.Stats":            "test seam: batched-write coalescing and yields",
	"routing.DistanceVector.Routes":     "test seam: distance-vector table",
	"discovery.Agent.CacheLen":          "test seam: discovery agent cache",
	"slo.Engine.Objectives":             "test seam: SLO engine",
	"telemetry.Aggregator.TopicStats":   "test seam: telemetry aggregator",
	"transaction.Predictor.Predicted":   "test seam: continuous-transaction predictor",
	"core.Node.Withdraw":                "test seam: supplier departure in the integration test",
	"pubsub.Broker.Subscriptions":       "test seam: pub/sub broker registrations",
	"chaos.ScenarioResult.EventsString": "test seam: chaos event trace",
	"telemetry.Series.Cap":              "test seam: telemetry series window",
	"telemetry.Series.Last":             "test seam: telemetry series window",
	"bibliometrics.MonotoneAfterOnset":  "test seam: bibliometrics series shape",

	// References the tests hold the fast paths to.
	"wire.Message.Equal": "test reference: field equality the codec fuzzers and reader tests compare with",

	// The root ndsm facade: one public name, no code path.
	"ndsm.NewTCPTransport":      "root facade: the public TCP constructor",
	"ndsm.HashPassword":         "root facade: the service password hash",
	"ndsm.MarshalDescription":   "root facade: the XML description codec",
	"ndsm.UnmarshalDescription": "root facade: the XML description codec",
}

// stdInterfaces are the standard-library interfaces whose methods the
// library calls on the tree's types: a method that completes one of them is
// reached even though no file of the tree spells the call.
var stdInterfaces = [][2]string{
	{"", "error"},
	{"fmt", "Stringer"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
	{"net/http", "Handler"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"io", "Closer"},
}

// TestNoExportedFuncOnlyTestsReach fails on an exported function or method
// of the tree that no non-test file reaches, benchmark/ included, unless
// apiAllowlist names it. A function is reached when a non-test file's
// identifier resolves to it, or when it implements an interface method a
// non-test file calls; the methods of stdInterfaces count as called.
func TestNoExportedFuncOnlyTestsReach(t *testing.T) {
	tt := loadTree(t)
	decls, reached, _ := reachability(t, tt)

	seen := map[string]bool{}
	var unreached []string
	for _, fn := range decls {
		id := funcKey(fn)
		seen[id] = true
		_, allowed := apiAllowlist[id]
		switch {
		case reached[fn] && allowed:
			t.Errorf("allowlisted %s has a caller: drop it from apiAllowlist", id)
		case !reached[fn] && !allowed:
			unreached = append(unreached, id+" ("+tt.fset.Position(fn.Pos()).String()+")")
		}
	}
	t.Logf("checked %d exported functions and methods, %d allowlisted", len(decls), len(apiAllowlist))
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("exported %s is reached by no program: delete it or allowlist it with a reason", u)
	}
	for id := range apiAllowlist {
		if !seen[id] {
			t.Errorf("allowlisted %s is not an exported function or method: drop it from apiAllowlist", id)
		}
	}
}

// reachability lists the tree's exported functions and methods, interface
// methods of named interfaces included, and marks the ones non-test files
// reach. direct holds those some identifier resolves to; reached adds the
// implementations of every interface method a file calls, or that
// stdInterfaces names.
func reachability(t *testing.T, tt *typedTree) (decls []*types.Func, reached, direct map[*types.Func]bool) {
	direct = map[*types.Func]bool{}
	called := map[*types.Interface][]*types.Func{} // interface -> its methods a file calls
	for _, p := range tt.pkgs {
		for _, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if !direct[fn] {
				direct[fn] = true
				if iface := recvInterface(fn); iface != nil {
					called[iface] = append(called[iface], fn)
				}
			}
		}
	}
	for _, in := range stdInterfaces {
		iface := lookupType(t, tt, in[0], in[1]).Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			called[iface] = append(called[iface], iface.Method(i))
		}
	}

	reached = map[*types.Func]bool{}
	for fn := range direct {
		reached[fn] = true
	}
	for _, p := range tt.pkgs {
		for _, obj := range p.info.Defs {
			switch obj := obj.(type) {
			case *types.Func:
				if obj.Exported() && funcKey(obj) != "" {
					decls = append(decls, obj)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() || named.TypeParams().Len() > 0 || types.IsInterface(named) {
					continue
				}
				ptr := types.NewPointer(named)
				for iface, methods := range called {
					if !types.Implements(ptr, iface) {
						continue
					}
					for _, m := range methods {
						if impl, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); impl != nil {
							reached[impl.(*types.Func)] = true
						}
					}
				}
			}
		}
	}
	return decls, reached, direct
}

// recvInterface is the interface that declares fn, or nil when fn is a
// function or a concrete method.
func recvInterface(fn *types.Func) *types.Interface {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	return iface
}

// funcKey names a function "package.Func" and a method of a named type,
// interfaces included, "package.Type.Method". A method of an unnamed
// interface has no key.
func funcKey(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, ok := typ.(*types.Named)
	if !ok {
		return ""
	}
	return fn.Pkg().Name() + "." + named.Obj().Name() + "." + fn.Name()
}

// lookupType finds a named type of the standard library ("" is the
// universe).
func lookupType(t *testing.T, tt *typedTree, path, name string) types.Type {
	t.Helper()
	scope := types.Universe
	if path != "" {
		pkg, err := tt.imp.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		scope = pkg.Scope()
	}
	return scope.Lookup(name).Type()
}

// TestInterfaceCallReachesImplementations holds the guard to its second
// rule: cluster.Resolver.Unregister is called only through the
// discovery.Resolver interface, never by name, and still counts as reached.
func TestInterfaceCallReachesImplementations(t *testing.T) {
	tt := loadTree(t)
	decls, reached, direct := reachability(t, tt)
	for _, fn := range decls {
		if funcKey(fn) != "cluster.Resolver.Unregister" {
			continue
		}
		if direct[fn] {
			t.Fatal("cluster.Resolver.Unregister has a direct caller: pick a method reached only through an interface")
		}
		if !reached[fn] {
			t.Fatal("cluster.Resolver.Unregister, called through discovery.Resolver, is not reported reached")
		}
		return
	}
	t.Fatal("cluster.Resolver.Unregister not found")
}
