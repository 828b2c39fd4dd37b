package ndsm_test

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the functions and methods that no other root reaches
// and that stay anyway, each with its one reason, keyed "package.Type.Method"
// or "package.Func". An entry is a root: what only it calls needs no entry of
// its own. Anything else no root reaches is deleted with its tests.
var apiAllowlist = map[string]string{
	// Paper features no experiment or program exercises. EXPERIMENTS.md
	// lists each as built and unmeasured.
	"location.Service.Update":          "paper feature: §3.5 location service",
	"location.Service.Remove":          "paper feature: §3.5 location service",
	"location.Service.Within":          "paper feature: §3.5 location service",
	"location.Service.InLogicalArea":   "paper feature: §3.5 location service",
	"netsim.Waypoint.Step":             "paper feature: §3.5 node mobility (random waypoint)",
	"scheduler.NewDepartureMonitor":    "paper feature: §3.7 departure hand-off",
	"scheduler.DepartureMonitor.Sweep": "paper feature: §3.7 departure hand-off",
	"transaction.Link.Send":            "paper feature: §3.6 per-connection ack and dedupe (Link)",
	"transaction.Link.SendReliable":    "paper feature: §3.6 per-connection ack and dedupe (Link)",
	"transaction.Link.Recv":            "paper feature: §3.6 per-connection ack and dedupe (Link)",
	"core.Binding.Poll":                "paper feature: §3.6 continuous transactions",
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

// apiPackages are the module's public packages: their exported functions and
// methods are roots, called by a program of the tree or not.
var apiPackages = map[string]bool{"ndsm": true, "ndsm/milan": true, "ndsm/sensorsim": true, "ndsm/simnet": true}

// TestNoExportedFuncOnlyTestsReach fails on a function or method of the tree,
// exported or not and benchmark/ included, that no root reaches, unless
// apiAllowlist names it. The roots are every main and init, the functions a
// package-level declaration names, the exported API of apiPackages, the
// methods of stdInterfaces and the apiAllowlist entries. A function reaches
// what its body names, and an interface method every implementation, so a
// function only dead code calls is dead too, and a helper only an allowlisted
// feature calls needs no entry of its own.
func TestNoExportedFuncOnlyTestsReach(t *testing.T) {
	tt := loadTree(t)
	r := reachability(t, tt, apiAllowlist)

	seen := map[string]bool{}
	var unreached []string
	onlyAllowed := 0
	for _, fn := range r.decls {
		id := funcKey(fn)
		seen[id] = true
		_, allowed := apiAllowlist[id]
		switch {
		case r.rooted[fn] && allowed:
			t.Errorf("allowlisted %s is reached from a root: drop it from apiAllowlist", id)
		case !r.reached[fn]:
			unreached = append(unreached, id+" ("+tt.fset.Position(fn.Pos()).String()+")")
		case !r.rooted[fn]:
			onlyAllowed++
		}
	}
	t.Logf("checked %d functions and methods, %d reached only through the %d allowlisted", len(r.decls), onlyAllowed, len(apiAllowlist))
	paperFeatures := 0
	for _, why := range apiAllowlist {
		if strings.HasPrefix(why, "paper feature") {
			paperFeatures++
		}
	}
	t.Logf("%d allowlist entries say \"paper feature\"", paperFeatures)
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is reached from no root: delete it or allowlist it with a reason", u)
	}
	for id := range apiAllowlist {
		if !seen[id] {
			t.Errorf("allowlisted %s is not a function or method of the tree: drop it from apiAllowlist", id)
		}
	}
}

// reach is the guard's reading of a tree.
type reach struct {
	// decls are the tree's functions and methods, those of its named
	// interfaces included.
	decls []*types.Func
	// named holds the functions some non-test identifier resolves to.
	named map[*types.Func]bool
	// rooted holds what the roots other than the allowlist reach; reached
	// adds what the allowlist entries reach.
	rooted, reached map[*types.Func]bool
}

// reachability builds the tree's call graph from the bodies of its non-test
// functions and walks it from the roots TestNoExportedFuncOnlyTestsReach
// names, allow standing for apiAllowlist.
func reachability(t *testing.T, tt *typedTree, allow map[string]string) *reach {
	r := &reach{named: map[*types.Func]bool{}, rooted: map[*types.Func]bool{}, reached: map[*types.Func]bool{}}
	names := map[*types.Func][]*types.Func{} // function -> what its body names
	var roots, allowed []*types.Func
	var concrete []types.Type // pointers to the tree's non-generic named types
	for _, p := range tt.pkgs {
		namedIn := func(n ast.Node) (fns []*types.Func) {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := p.info.Uses[id].(*types.Func); ok {
						fn = fn.Origin()
						r.named[fn] = true
						fns = append(fns, fn)
					}
				}
				return true
			})
			return fns
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					if d.Body != nil {
						names[fn] = namedIn(d.Body)
					}
					if isRoot(fn) {
						roots = append(roots, fn)
					}
				case *ast.GenDecl:
					roots = append(roots, namedIn(d)...)
				}
			}
		}
		for _, obj := range p.info.Defs {
			switch obj := obj.(type) {
			case *types.Func:
				if funcKey(obj) == "" {
					continue
				}
				r.decls = append(r.decls, obj)
				if _, ok := allow[funcKey(obj)]; ok {
					allowed = append(allowed, obj)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if ok && !obj.IsAlias() && named.TypeParams().Len() == 0 && !types.IsInterface(named) {
					concrete = append(concrete, types.NewPointer(named))
				}
			}
		}
	}
	for _, in := range stdInterfaces {
		iface := lookupType(t, tt, in[0], in[1]).Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			roots = append(roots, iface.Method(i))
		}
	}

	impls := map[*types.Interface][]types.Type{}
	walk := func(seen map[*types.Func]bool, from []*types.Func) {
		stack := append([]*types.Func(nil), from...)
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[fn] {
				continue
			}
			seen[fn] = true
			stack = append(stack, names[fn]...)
			iface := recvInterface(fn)
			if iface == nil {
				continue
			}
			ptrs, ok := impls[iface]
			if !ok {
				for _, ptr := range concrete {
					if types.Implements(ptr, iface) {
						ptrs = append(ptrs, ptr)
					}
				}
				impls[iface] = ptrs
			}
			for _, ptr := range ptrs {
				if impl, _, _ := types.LookupFieldOrMethod(ptr, false, fn.Pkg(), fn.Name()); impl != nil {
					stack = append(stack, impl.(*types.Func).Origin())
				}
			}
		}
	}
	walk(r.rooted, roots)
	for fn := range r.rooted {
		r.reached[fn] = true
	}
	walk(r.reached, allowed)
	return r
}

// isRoot reports whether fn is reached however the tree calls it: a main or
// init, or the exported API of one of apiPackages.
func isRoot(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil && (fn.Name() == "init" || fn.Name() == "main" && fn.Pkg().Name() == "main") {
		return true
	}
	if !apiPackages[fn.Pkg().Path()] || !fn.Exported() {
		return false
	}
	if recv == nil {
		return true
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, ok := typ.(*types.Named)
	return ok && named.Obj().Exported()
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

// TestInterfaceCallReachesImplementations holds the guard to its interface
// rule on the tree: cluster.Resolver.Unregister is called only through the
// discovery.Resolver interface, never by name, and still counts as reached.
func TestInterfaceCallReachesImplementations(t *testing.T) {
	tt := loadTree(t)
	r := reachability(t, tt, apiAllowlist)
	for _, fn := range r.decls {
		if funcKey(fn) != "cluster.Resolver.Unregister" {
			continue
		}
		if r.named[fn] {
			t.Fatal("cluster.Resolver.Unregister has a direct caller: pick a method reached only through an interface")
		}
		if !r.rooted[fn] {
			t.Fatal("cluster.Resolver.Unregister, called through discovery.Resolver, is not reported reached")
		}
		return
	}
	t.Fatal("cluster.Resolver.Unregister not found")
}

// TestReachabilityRules holds the guard's walk to its rules on two small
// packages checked from source, so each rule is seen to hold whatever the
// tree happens to contain.
func TestReachabilityRules(t *testing.T) {
	tt := typeCheckSources(t, [2]string{"example.com/lib", `package lib

type Shape interface{ Area() float64 }

type Square struct{}

func (Square) Area() float64 { return 1 }

type Circle struct{}

func (*Circle) Area() float64 { return 3 }

// Label's Area has another signature: Label is no Shape.
type Label struct{}

func (Label) Area() string { return "" }

// Printer's method is never called, only satisfied.
type Printer interface{ Print() }

type Doc struct{}

func (Doc) Print() {}

func Total(shapes []Shape) (sum float64) {
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

func Shared() {}

func Dead() {
	Shared()
	onlyDead()
}

func onlyDead() {}

func Feature() { featureHelper() }

func featureHelper() {}
`}, [2]string{"example.com/cmd", `package main

import "example.com/lib"

func main() {
	lib.Shared()
	_ = lib.Total(nil)
	var _ lib.Printer = lib.Doc{}
}
`})
	r := reachability(t, tt, map[string]string{"lib.Feature": "a feature the tests keep"})
	fns := map[string]*types.Func{}
	for _, fn := range r.decls {
		fns[funcKey(fn)] = fn
	}
	check := func(rule, key string, rooted, reached bool) {
		t.Helper()
		fn := fns[key]
		if fn == nil {
			t.Fatalf("%s: %s is not among the declarations", rule, key)
		}
		if r.rooted[fn] != rooted || r.reached[fn] != reached {
			t.Errorf("%s: %s rooted %v, reached %v; want %v, %v", rule, key, r.rooted[fn], r.reached[fn], rooted, reached)
		}
	}
	check("a function only a dead one calls is dead", "lib.onlyDead", false, false)
	check("a function only a dead one calls is dead", "lib.Dead", false, false)
	check("a dead caller does not make a live callee dead", "lib.Shared", true, true)
	check("an allowlist entry is reached", "lib.Feature", false, true)
	check("an allowlist entry's callee is reached through it", "lib.featureHelper", false, true)
	check("an interface call reaches every implementation", "lib.Square.Area", true, true)
	check("an interface call reaches every implementation", "lib.Circle.Area", true, true)
	check("a method of the same name that implements nothing is not reached", "lib.Label.Area", false, false)
	check("an implementation of an interface nobody calls is not reached", "lib.Doc.Print", false, false)
	check("an interface method nobody calls is not reached", "lib.Printer.Print", false, false)
	check("main is a root", "main.main", true, true)
}
