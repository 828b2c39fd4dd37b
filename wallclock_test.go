package ndsm_test

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// wallClockFuncs are the functions of package time that read the wall clock
// or wait on it.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true,
}

// wallClockExempt reports whether a package may use the wall clock: simtime,
// which is the wall clock behind simtime.Real, and the deployments and
// harnesses (programs, examples, the experiments and the load benchmark).
func wallClockExempt(path string) bool {
	for _, prefix := range []string{"ndsm/internal/simtime", "ndsm/cmd/", "ndsm/examples/", "ndsm/internal/experiments", "ndsm/benchmark"} {
		if strings.HasPrefix(path, prefix) {
			return true
		}
	}
	return false
}

// TestNoWallClockInLibrary fails on a use of time.Now, Since, Until, Sleep,
// After, AfterFunc, NewTimer, NewTicker or Tick in a non-test file of a
// library package; no function is exempt. A node runs on the simtime.Clock
// it is given, and its timers come from that clock (Clock.Timer,
// simtime.Every): a wall-clock read or timer in the library is one a
// virtual-clock world cannot move.
func TestNoWallClockInLibrary(t *testing.T) {
	tt := loadTree(t)
	var bad []string
	for _, p := range tt.pkgs {
		if wallClockExempt(p.pkg.Path()) {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				id := p.pkg.Name() + " package scope"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					id = funcKey(p.info.Defs[fd.Name].(*types.Func))
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					ident, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.info.Uses[ident].(*types.Func)
					if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallClockFuncs[fn.Name()] || fn.Type().(*types.Signature).Recv() != nil {
						return true
					}
					bad = append(bad, "time."+fn.Name()+" in "+id+" ("+tt.fset.Position(ident.Pos()).String()+")")
					return true
				})
			}
		}
	}
	t.Logf("%d wall-clock calls in library code", len(bad))
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s: read the time from the node's simtime.Clock and arm its timers with Clock.Timer or simtime.Every", b)
	}
}
