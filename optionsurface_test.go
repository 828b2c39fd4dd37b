package ndsm_test

import (
	"go/ast"
	"go/token"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// optionAllowlist names the exported option fields no program sets that stay
// anyway, each with its one reason, keyed "package.Type.Field". Any other
// field no program sets is a constant in disguise: delete it and use its
// default.
var optionAllowlist = map[string]string{
	// Paper features no program configures. EXPERIMENTS.md lists them as
	// built and unmeasured.
	"core.BindOptions.MinDeliveryRatio":          "paper feature: §3.4 QoS floor",
	"core.BindOptions.MinBenefit":                "paper feature: §3.4 QoS floor",
	"core.BindOptions.MinSamples":                "paper feature: §3.4 QoS floor (attempts before it applies)",
	"core.BindOptions.Lane":                      "paper feature: §3.7 priority lanes per binding",
	"scheduler.DispatcherConfig.Policy":          "paper feature: §3.7 priority dispatch",
	"scheduler.DispatcherConfig.RateBytesPerSec": "paper feature: §3.7 bandwidth constraints (token bucket)",
	"scheduler.DispatcherConfig.BurstBytes":      "paper feature: §3.7 bandwidth constraints (token bucket)",
	"scheduler.DispatcherConfig.MaxBacklog":      "paper feature: §3.7 priority dispatch",
	"scheduler.DispatcherConfig.DropLate":        "paper feature: §3.7 priority dispatch",
	"transaction.LinkConfig.RetryInterval":       "paper feature: §3.6 per-connection ack and retransmission",
	"transaction.LinkConfig.MaxRetries":          "paper feature: §3.6 per-connection ack and retransmission",
	"discovery.AgentConfig.Gossip":               "paper feature: §3.3 advertisement gossip",
	"discovery.AgentConfig.QueryRetry":           "paper feature: §3.3 query re-flood",
	"endpoint.LaneConfig.TopicLanes":             "paper feature: §3.7 server-side lanes for unstamped requests",

	// Deployment settings: a rule set or a place, not a tuning knob.
	"interop.GatewayConfig.BtoA":    "deployment rule set: the reverse bridging direction",
	"chaos.ScenarioConfig.TraceDir": "CI artefacts: the failure-seed trace directory",

	// Set at runtime through a setter in the declaring package.
	"netsim.Config.Latency": "set at runtime by SetLatency",
	"netsim.Config.Jitter":  "set at runtime by SetLatency",

	// Test seams: what tests substitute to observe or bound live behaviour.
	"core.Config.Clock":                "test seam: a virtual clock",
	"discovery.AgentConfig.Clock":      "test seam: a virtual clock",
	"netsim.Config.Clock":              "test seam: a virtual clock",
	"scheduler.DispatcherConfig.Clock": "test seam: a virtual clock",
	"transaction.LinkConfig.Clock":     "test seam: a virtual clock",
	"cluster.NodeOptions.Metrics":      "test seam: a private instrument registry",
	"cluster.ResolverOptions.Metrics":  "test seam: a private instrument registry",
	"health.Options.Registry":          "test seam: a private instrument registry",
	"slo.Options.Registry":             "test seam: a private instrument registry",
	"endpoint.CallerOptions.Timeout":   "test seam: one deadline for every call a test makes",

	// Only tests set these; each is the next audit's to make a constant or
	// delete (ROADMAP item 8(g)).
	"chaos.WorldConfig.Telemetry":        "next audit: only chaos tests build the telemetry plane alone",
	"flightrec.Options.Capacity":         "next audit: only tests size the bundle ring",
	"mq.DialConfig.ReqLog":               "next audit: no program records mq client wide events",
	"rpc.ServerConfig.Lanes":             "next audit: no program starts an rpc server through NewServerWith",
	"rpc.ServerConfig.MaxInFlight":       "next audit: no program starts an rpc server through NewServerWith",
	"rpc.ServerConfig.ReqLog":            "next audit: no program starts an rpc server through NewServerWith",
	"slo.QuotaAdapterOptions.Lane":       "next audit: every program widens the control lane",
	"telemetry.AggregatorOptions.Window": "next audit: only tests size the series window",
	"telemetry.PublisherOptions.Health":  "next audit: no program publishes its detector view",
	"trace.Options.SampleEvery":          "next audit: every program traces every root",
	"trace.Options.Seed":                 "next audit: no program shares a collector between tracers",
}

// optionSuffixes are the type-name endings of the structs a caller fills to
// configure something.
var optionSuffixes = []string{"Options", "Config", "Policy", "Params"}

// optionStruct names a type by its package directory and name.
type optionStruct struct{ dir, name string }

// optionFile is one parsed non-test file and the directory each of its
// imports of this module names.
type optionFile struct {
	dir     string
	f       *ast.File
	imports map[string]string // import name -> directory
}

// TestNoOptionOnlyTestsSet fails on an exported field of an exported option
// struct (a type named *Options, *Config, *Policy or *Params) that no
// non-test Go file in the tree sets, benchmark/ included. A field is set by
// a composite-literal key, or by an assignment in a package other than the
// one that declares it, so a withDefaults fill does not count. Fields are
// keyed by struct wherever the source names the type: the literal's type,
// or the declared type of the variable assigned through. An assignment
// through any other receiver sets the field name in every option struct of
// a package the assigning file imports.
func TestNoOptionOnlyTestsSet(t *testing.T) {
	files := parseOptionFiles(t)
	pkgNames := map[string]string{}            // dir -> package name
	fields := map[optionStruct][]string{}      // option struct -> exported fields
	aliases := map[optionStruct]optionStruct{} // type X = pkg.Y
	set := map[optionStruct]map[string]bool{}  // fields set through the named type
	untyped := map[string][]optionFile{}       // field -> files assigning it blind
	for _, of := range files {
		pkgNames[of.dir] = of.f.Name.Name
		for _, decl := range of.f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if ts.Assign.IsValid() {
					if target, ok := of.typeOf(ts.Type); ok {
						aliases[optionStruct{of.dir, ts.Name.Name}] = target
					}
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !hasOptionSuffix(ts.Name.Name) {
					continue
				}
				key := optionStruct{of.dir, ts.Name.Name}
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						if n.IsExported() {
							fields[key] = append(fields[key], n.Name)
						}
					}
				}
			}
		}
	}
	mark := func(typ optionStruct, field string) {
		for i := 0; i < 4; i++ { // follow alias chains
			next, ok := aliases[typ]
			if !ok {
				break
			}
			typ = next
		}
		if set[typ] == nil {
			set[typ] = map[string]bool{}
		}
		set[typ][field] = true
	}
	markLit := func(lit *ast.CompositeLit, typ optionStruct) {
		for _, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					mark(typ, id.Name)
				}
			}
		}
	}
	for _, of := range files {
		of := of
		vars := map[string]optionStruct{} // the current function's typed names
		assign := func(lhs ast.Expr) {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				return
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if typ, ok := vars[id.Name]; ok {
					if typ.dir != of.dir {
						mark(typ, sel.Sel.Name)
					}
					return
				}
			}
			untyped[sel.Sel.Name] = append(untyped[sel.Sel.Name], of)
		}
		ast.Inspect(of.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				vars = map[string]optionStruct{}
				of.declare(vars, n.Recv)
				of.declare(vars, n.Type.Params)
			case *ast.FuncLit:
				of.declare(vars, n.Type.Params)
			case *ast.ValueSpec:
				if typ, ok := of.typeOf(n.Type); ok {
					for _, name := range n.Names {
						vars[name.Name] = typ
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							if typ, ok := of.exprType(n.Rhs[i], vars); ok {
								vars[id.Name] = typ
							}
						}
					}
				}
				for _, lhs := range n.Lhs {
					assign(lhs)
				}
			case *ast.IncDecStmt:
				assign(n.X)
			case *ast.CompositeLit:
				if typ, ok := of.typeOf(n.Type); ok {
					markLit(n, typ)
				}
				// Elements of a slice or map literal may elide their type.
				var elem ast.Expr
				switch lt := n.Type.(type) {
				case *ast.ArrayType:
					elem = lt.Elt
				case *ast.MapType:
					elem = lt.Value
				}
				if typ, ok := of.typeOf(elem); ok {
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							e = kv.Value
						}
						if u, ok := e.(*ast.UnaryExpr); ok {
							e = u.X
						}
						if inner, ok := e.(*ast.CompositeLit); ok && inner.Type == nil {
							markLit(inner, typ)
						}
					}
				}
			}
			return true
		})
	}

	var unset []string
	seen := map[string]bool{}
	for s, names := range fields {
		for _, name := range names {
			id := pkgNames[s.dir] + "." + s.name + "." + name
			seen[id] = true
			isSet := set[s][name]
			for _, of := range untyped[name] {
				isSet = isSet || (of.dir != s.dir && of.importsDir(s.dir))
			}
			_, allowed := optionAllowlist[id]
			switch {
			case isSet && allowed:
				t.Errorf("allowlisted %s is set by a program: drop it from optionAllowlist", id)
			case !isSet && !allowed:
				unset = append(unset, id+" ("+s.dir+")")
			}
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("option field %s is set by no program: make it a constant or allowlist it with a reason", u)
	}
	for id := range optionAllowlist {
		if !seen[id] {
			t.Errorf("allowlisted %s is not an option field: drop it from optionAllowlist", id)
		}
	}
}

func hasOptionSuffix(name string) bool {
	for _, s := range optionSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// parseOptionFiles parses every non-test Go file of the tree and notes
// which directory each of its imports of this module names.
func parseOptionFiles(t *testing.T) []optionFile {
	var files []optionFile
	for _, sf := range nonTestFiles(t, token.NewFileSet()) {
		of := optionFile{dir: filepath.ToSlash(filepath.Dir(sf.path)), f: sf.f, imports: map[string]string{}}
		for _, imp := range sf.f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if ipath != "ndsm" && !strings.HasPrefix(ipath, "ndsm/") {
				continue
			}
			dir := strings.TrimPrefix(strings.TrimPrefix(ipath, "ndsm"), "/")
			if dir == "" {
				dir = "."
			}
			name := path.Base(ipath)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			of.imports[name] = dir
		}
		files = append(files, of)
	}
	return files
}

// typeOf resolves a type expression naming a type of this module: T in the
// file's own package, or pkg.T through one of its imports.
func (of optionFile) typeOf(e ast.Expr) (optionStruct, bool) {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch e := e.(type) {
	case *ast.Ident:
		return optionStruct{of.dir, e.Name}, true
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			if dir, ok := of.imports[x.Name]; ok {
				return optionStruct{dir, e.Sel.Name}, true
			}
		}
	}
	return optionStruct{}, false
}

// exprType is the type of a value the source spells out: a composite
// literal, its address, or a name already typed in vars.
func (of optionFile) exprType(e ast.Expr, vars map[string]optionStruct) (optionStruct, bool) {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	switch e := e.(type) {
	case *ast.CompositeLit:
		return of.typeOf(e.Type)
	case *ast.Ident:
		typ, ok := vars[e.Name]
		return typ, ok
	}
	return optionStruct{}, false
}

// declare types the names of a receiver or parameter list.
func (of optionFile) declare(vars map[string]optionStruct, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		if typ, ok := of.typeOf(f.Type); ok {
			for _, name := range f.Names {
				vars[name.Name] = typ
			}
		}
	}
}

// importsDir reports whether the file imports the package in dir.
func (of optionFile) importsDir(dir string) bool {
	for _, d := range of.imports {
		if d == dir {
			return true
		}
	}
	return false
}
