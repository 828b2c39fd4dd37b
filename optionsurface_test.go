package ndsm_test

import (
	"go/ast"
	"go/types"
	"sort"
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
	"core.BindOptions.MinDeliveryRatio":    "paper feature: §3.4 QoS floor",
	"core.BindOptions.MinBenefit":          "paper feature: §3.4 QoS floor",
	"core.BindOptions.MinSamples":          "paper feature: §3.4 QoS floor (attempts before it applies)",
	"core.BindOptions.Lane":                "paper feature: §3.7 priority lanes per binding",
	"transaction.LinkConfig.RetryInterval": "paper feature: §3.6 per-connection ack and retransmission",
	"transaction.LinkConfig.MaxRetries":    "paper feature: §3.6 per-connection ack and retransmission",
	"discovery.AgentConfig.QueryRetry":     "paper feature: §3.3 query re-flood",
	"endpoint.LaneConfig.TopicLanes":       "paper feature: §3.7 server-side lanes for unstamped requests",

	// Deployment settings: a rule set or a place, not a tuning knob.
	"interop.GatewayConfig.BtoA":    "deployment rule set: the reverse bridging direction",
	"chaos.ScenarioConfig.TraceDir": "CI artefacts: the failure-seed trace directory",

	// Set at runtime through a setter in the declaring package.
	"netsim.Config.Latency": "set at runtime by SetLatency",
	"netsim.Config.Jitter":  "set at runtime by SetLatency",

	// Test seams: what tests substitute to observe or bound live behaviour.
	"core.Config.Clock":              "test seam: a virtual clock",
	"discovery.AgentConfig.Clock":    "test seam: a virtual clock",
	"netsim.Config.Clock":            "test seam: a virtual clock",
	"transaction.LinkConfig.Clock":   "test seam: a virtual clock",
	"health.Options.Registry":        "test seam: a private instrument registry",
	"endpoint.CallerOptions.Timeout": "test seam: one deadline for every call a test makes",
}

// optionSuffixes are the type-name endings of the structs a caller fills to
// configure something.
var optionSuffixes = []string{"Options", "Config", "Policy", "Params"}

// TestNoOptionOnlyTestsSet fails on an exported field of an exported option
// struct (a type named *Options, *Config, *Policy or *Params) that no
// non-test Go file in the tree sets, benchmark/ included. A field is set by
// a composite-literal key, or by an assignment in a package other than the
// one that declares it, so a withDefaults fill does not count.
func TestNoOptionOnlyTestsSet(t *testing.T) {
	tt := loadTree(t)
	set := map[*types.Var]bool{}
	for _, p := range tt.pkgs {
		field := func(id *ast.Ident) *types.Var {
			if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
				return v.Origin()
			}
			return nil
		}
		assign := func(lhs ast.Expr) {
			if sel, ok := lhs.(*ast.SelectorExpr); ok {
				if v := field(sel.Sel); v != nil && v.Pkg() != p.pkg {
					set[v] = true
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v := field(id); v != nil {
									set[v] = true
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						assign(lhs)
					}
				case *ast.IncDecStmt:
					assign(n.X)
				}
				return true
			})
		}
	}

	var unset []string
	seen := map[string]bool{}
	count := 0
	for _, p := range tt.pkgs {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !hasOptionSuffix(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if !v.Exported() || v.Embedded() {
					continue
				}
				count++
				id := p.pkg.Name() + "." + name + "." + v.Name()
				seen[id] = true
				_, allowed := optionAllowlist[id]
				switch {
				case set[v] && allowed:
					t.Errorf("allowlisted %s is set by a program: drop it from optionAllowlist", id)
				case !set[v] && !allowed:
					unset = append(unset, id+" ("+tt.fset.Position(v.Pos()).String()+")")
				}
			}
		}
	}
	t.Logf("checked %d exported option fields", count)
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
