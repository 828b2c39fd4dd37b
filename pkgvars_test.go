package ndsm_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"testing"
)

// varAllowlist names the package-level variables that stay, each with its
// one reason, keyed "package.name". Every one is written once, at package
// initialisation, and only read after.
var varAllowlist = map[string]string{
	// Name and lookup tables.
	"obs.runtimeSamples":         "read-only table: the runtime/metrics series sampled",
	"svcdesc.opNames":            "read-only table: constraint operator names",
	"wire.kindNames":             "read-only table: message kind names",
	"endpoint.laneByRank":        "read-only table: admission lane by priority rank",
	"scheduler.policyNames":      "read-only table: queue policy names",
	"chaos.invariants":           "read-only table: the invariants every scenario checks",
	"experiments.Gates":          "read-only table: the absolute bounds ndsm-bench -compare holds",
	"experiments.e13Gates":       "read-only table: E13's bounds, collected into Gates",
	"experiments.e14Gates":       "read-only table: E14's bounds, collected into Gates",
	"experiments.e15Gates":       "read-only table: E15's bounds, collected into Gates",
	"experiments.experimentList": "read-only table: the experiments in run order",

	// Shared immutable values, compared by identity.
	"endpoint.resolvedFuture":           "immutable value: the Future every settled one-way call returns",
	"endpoint.reasonAtCapacity":         "immutable value: a shed reason, compared by identity",
	"endpoint.reasonExpiredAtAdmission": "immutable value: a shed reason, compared by identity",
	"endpoint.reasonExpiredInQueue":     "immutable value: a shed reason, compared by identity",
	"endpoint.reasonPreempted":          "immutable value: a shed reason, compared by identity",
	"trace.noopRelease":                 "immutable value: the release func of a span that is not traced",

	// What the CPU can run, read once.
	"wire.frameCRCKernel": "CPU feature flag: whether the frame CRC runs the vector kernel, from CPUID and XCR0",
}

// TestNoMutablePackageVars fails on a package-level variable in a non-test
// file of a library package unless it is an error value, a sync.Pool, a
// facade alias of a function (the root packages' `var NewX = pkg.NewX`), or
// varAllowlist names it; `_` assertions are not variables anyone can read.
// State a component counts or traces into belongs to the component, handed
// over at construction: a process-wide variable is shared by every node of a
// simulated world and by every test in a binary. Programs (package main,
// benchmark/ included) own their roots and are not checked.
func TestNoMutablePackageVars(t *testing.T) {
	tt := loadTree(t)
	errType := types.Universe.Lookup("error").Type()
	checked, seen := 0, map[string]bool{}
	var bad []string
	for _, p := range tt.pkgs {
		if p.pkg.Name() == "main" {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if name.Name == "_" {
							continue
						}
						checked++
						id := p.pkg.Name() + "." + name.Name
						seen[id] = true
						typ := p.info.Defs[name].Type()
						var value ast.Expr
						if i < len(vs.Values) {
							value = vs.Values[i]
						}
						_, allowed := varAllowlist[id]
						switch {
						case types.Identical(typ, errType), isSyncPool(typ), isFuncAlias(p.info, value):
							if allowed {
								t.Errorf("allowlisted %s needs no entry: drop it from varAllowlist", id)
							}
						case !allowed:
							bad = append(bad, id+" "+typ.String()+" ("+tt.fset.Position(name.Pos()).String()+")")
						}
					}
				}
			}
		}
	}
	t.Logf("checked %d package-level variables, %d allowlisted", checked, len(varAllowlist))
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("package-level variable %s: hand the state to its owner at construction, or allowlist a read-only table with a reason", b)
	}
	for id := range varAllowlist {
		if !seen[id] {
			t.Errorf("allowlisted %s is not a package-level variable: drop it from varAllowlist", id)
		}
	}
}

// isSyncPool reports whether typ is sync.Pool.
func isSyncPool(typ types.Type) bool {
	n, ok := typ.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "Pool"
}

// isFuncAlias reports whether value names a declared function, as a facade's
// `var NewStore = discovery.NewStore` does.
func isFuncAlias(info *types.Info, value ast.Expr) bool {
	switch v := value.(type) {
	case *ast.Ident:
		_, ok := info.Uses[v].(*types.Func)
		return ok
	case *ast.SelectorExpr:
		_, ok := info.Uses[v.Sel].(*types.Func)
		return ok
	}
	return false
}
