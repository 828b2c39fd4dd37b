package ndsm_test

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// optionAllowlist names the exported option fields that programs give fewer
// than two values and that stay anyway, each with its one reason, keyed
// "package.Type.Field". Any other such field is a constant in disguise:
// delete it and use the one value.
var optionAllowlist = map[string]string{
	// Paper features no program configures. EXPERIMENTS.md lists them as
	// built and unmeasured.
	"core.BindOptions.MinDeliveryRatio":    "paper feature: §3.4 QoS floor",
	"core.BindOptions.MinBenefit":          "paper feature: §3.4 QoS floor",
	"core.BindOptions.MinSamples":          "paper feature: §3.4 QoS floor (attempts before it applies)",
	"transaction.LinkConfig.RetryInterval": "paper feature: §3.6 per-connection ack and retransmission",
	"transaction.LinkConfig.MaxRetries":    "paper feature: §3.6 per-connection ack and retransmission",
	"discovery.AgentConfig.QueryRetry":     "paper feature: §3.3 query re-flood",

	// Deployment settings: a rule set, a place or a name, not a tuning knob.
	"interop.GatewayConfig.BtoA":        "deployment rule set: the reverse bridging direction",
	"chaos.ScenarioConfig.TraceDir":     "CI artefacts: the failure-seed trace directory",
	"slo.QuotaAdapterOptions.Objective": "deployment setting: the SLO the adapter follows",

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
// struct (a type named *Options, *Config, *Policy or *Params) to which the
// non-test Go files of the tree, benchmark/ included, give fewer than two
// values: a knob no program turns to a second value is a constant. A field
// set by no program is the case where its one value is the default.
func TestNoOptionOnlyTestsSet(t *testing.T) {
	tt := loadTree(t)
	fields, flagged := optionFields(tt)
	allowed := 0
	for _, f := range fields {
		if _, ok := optionAllowlist[f.id]; ok {
			allowed++
		}
	}
	t.Logf("checked %d exported option fields, %d allowlisted", len(fields), allowed)
	var bad []string
	for _, f := range flagged {
		if _, ok := optionAllowlist[f.id]; !ok {
			bad = append(bad, f.id+" ("+tt.fset.Position(f.v.Pos()).String()+"): "+f.values.String())
		}
	}
	for _, u := range bad {
		t.Errorf("option field %s: make it a constant or allowlist it with a reason", u)
	}
	isFlagged, seen := map[string]bool{}, map[string]bool{}
	for _, f := range flagged {
		isFlagged[f.id] = true
	}
	for _, f := range fields {
		seen[f.id] = true
		if _, ok := optionAllowlist[f.id]; ok && !isFlagged[f.id] {
			t.Errorf("allowlisted %s gets %s from programs: drop it from optionAllowlist", f.id, f.values.String())
		}
	}
	for id := range optionAllowlist {
		if !seen[id] {
			t.Errorf("allowlisted %s is not an option field: drop it from optionAllowlist", id)
		}
	}
}

// optionField is one exported field of an exported option struct and the
// values the tree's programs give it.
type optionField struct {
	id     string // "package.Type.Field"
	v      *types.Var
	values *fieldValues
}

// fieldValues is what the tree gives one field: whether some expression is
// not a constant, whether some literal leaves it at its zero value, and the
// distinct non-zero constants.
type fieldValues struct {
	varies bool
	zero   bool
	consts []constant.Value
}

// add records one expression written to the field.
func (fv *fieldValues) add(tv types.TypeAndValue) {
	switch {
	case tv.IsNil():
		fv.zero = true
	case tv.Value == nil:
		fv.varies = true
	case isZeroConst(tv.Value):
		fv.zero = true
	default:
		for _, c := range fv.consts {
			if constant.Compare(c, token.EQL, tv.Value) {
				return
			}
		}
		fv.consts = append(fv.consts, tv.Value)
	}
}

// distinct is the number of different values, the zero value counted once.
func (fv *fieldValues) distinct() int {
	n := len(fv.consts)
	if fv.zero {
		n++
	}
	return n
}

func (fv *fieldValues) String() string {
	if fv.varies {
		return "varies"
	}
	var vs []string
	if fv.zero {
		vs = append(vs, "default")
	}
	for _, c := range fv.consts {
		vs = append(vs, c.String())
	}
	if len(vs) == 0 {
		return "set by no program"
	}
	return "only " + strings.Join(vs, ", ")
}

// isZeroConst reports whether c is its type's zero value: 0, false or "".
func isZeroConst(c constant.Value) bool {
	switch c.Kind() {
	case constant.Bool:
		return !constant.BoolVal(c)
	case constant.String:
		return constant.StringVal(c) == ""
	case constant.Int, constant.Float, constant.Complex:
		return constant.Sign(c) == 0 && constant.Sign(constant.Imag(c)) == 0
	}
	return false
}

// optionFields returns every exported option field of the tree, and those of
// them that no expression varies and that get fewer than two distinct
// values, each sorted by id. A value is a composite-literal key's constant,
// an assignment's constant from outside the declaring package (a
// withDefaults fill does not count), or the default of a literal of the
// struct that omits the field; any other expression varies.
func optionFields(tt *typedTree) (all, flagged []optionField) {
	values := map[*types.Var]*fieldValues{}
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
				values[v] = &fieldValues{}
				all = append(all, optionField{id: p.pkg.Name() + "." + name + "." + v.Name(), v: v, values: values[v]})
			}
		}
	}

	for _, p := range tt.pkgs {
		field := func(id *ast.Ident) *fieldValues {
			if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
				return values[v.Origin()]
			}
			return nil
		}
		assign := func(lhs ast.Expr, tv types.TypeAndValue) {
			if sel, ok := lhs.(*ast.SelectorExpr); ok {
				if fv := field(sel.Sel); fv != nil && p.info.Uses[sel.Sel].Pkg() != p.pkg {
					fv.add(tv)
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					literal(p.info, n, values)
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						tv := types.TypeAndValue{} // varies: op=, or one call's many results
						if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
							tv = p.info.Types[n.Rhs[i]]
						}
						assign(lhs, tv)
					}
				case *ast.IncDecStmt:
					assign(n.X, types.TypeAndValue{})
				}
				return true
			})
		}
	}

	for _, f := range all {
		if !f.values.varies && f.values.distinct() < 2 {
			flagged = append(flagged, f)
		}
	}
	byID := func(fs []optionField) {
		sort.Slice(fs, func(i, j int) bool { return fs[i].id < fs[j].id })
	}
	byID(all)
	byID(flagged)
	return all, flagged
}

// literal records what one composite literal of a struct type gives each of
// its option fields: the value of each key, and the default for the rest.
func literal(info *types.Info, lit *ast.CompositeLit, values map[*types.Var]*fieldValues) {
	typ := info.Types[lit].Type
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	st, ok := typ.Underlying().(*types.Struct)
	if !ok {
		return
	}
	keyed := map[*types.Var]bool{}
	for i, elt := range lit.Elts {
		var v *types.Var
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			id, _ := kv.Key.(*ast.Ident)
			v, _ = info.Uses[id].(*types.Var)
			val = kv.Value
		} else {
			v = st.Field(i)
		}
		if v == nil {
			continue
		}
		v = v.Origin()
		keyed[v] = true
		if fv := values[v]; fv != nil {
			fv.add(info.Types[val])
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		v := st.Field(i).Origin()
		if fv := values[v]; fv != nil && !keyed[v] {
			fv.zero = true
		}
	}
}

// TestOptionValueRules holds the option guard to its rules on two small
// packages checked from source, so each rule is seen to hold whatever the
// tree happens to contain.
func TestOptionValueRules(t *testing.T) {
	tt := typeCheckSources(t, [2]string{"example.com/lib", `package lib

type Options struct {
	One      int     // the same constant in every literal
	Two      string  // two constants
	Omitted  float64 // a constant, and a literal that omits it
	Zero     bool    // an explicit zero, and a literal that omits it
	Variable int     // a variable
	Filled   int     // one constant, and another assigned in this package
}

func (o *Options) withDefaults() { o.Filled = 9 }
`}, [2]string{"example.com/cmd", `package main

import (
	"os"

	"example.com/lib"
)

func main() {
	a := lib.Options{One: 1, Two: "a", Omitted: 2.5, Zero: false, Variable: len(os.Args), Filled: 3}
	b := &lib.Options{One: 1, Two: "b", Filled: 3}
	b.One = 1
	_, _ = a, b
}
`})
	all, flagged := optionFields(tt)
	if len(all) != 6 {
		t.Fatalf("%d option fields, want 6", len(all))
	}
	isFlagged := map[string]bool{}
	for _, f := range flagged {
		isFlagged[f.id] = true
	}
	check := func(rule, id string, want bool) {
		t.Helper()
		if isFlagged[id] != want {
			t.Errorf("%s: %s flagged %v, want %v", rule, id, isFlagged[id], want)
		}
	}
	check("one constant everywhere is flagged", "lib.Options.One", true)
	check("two constants pass", "lib.Options.Two", false)
	check("a constant and an omitting literal pass", "lib.Options.Omitted", false)
	check("an explicit zero is the default an omission gives", "lib.Options.Zero", true)
	check("a variable passes", "lib.Options.Variable", false)
	check("an assignment in the declaring package does not count", "lib.Options.Filled", true)
}

func hasOptionSuffix(name string) bool {
	for _, s := range optionSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}
