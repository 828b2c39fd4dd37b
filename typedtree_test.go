package ndsm_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// typedPackage is one non-test package of this module or of benchmark/,
// parsed and type-checked.
type typedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// typedTree is every non-test package of the tree in dependency order, and
// the importer that loaded them, which also serves the standard library.
type typedTree struct {
	fset *token.FileSet
	pkgs []*typedPackage
	imp  types.Importer
}

var (
	treeOnce sync.Once
	tree     *typedTree
	treeErr  error
)

// loadTree type-checks the tree once per test binary. Any type error, or a
// load that missed ndsm/benchmark, fails the test: a guard over a tree it
// could not read would pass on nothing.
func loadTree(t *testing.T) *typedTree {
	t.Helper()
	treeOnce.Do(func() { tree, treeErr = typeCheckTree() })
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return tree
}

// typeCheckTree lists the packages of the root module and of benchmark/ with
// their dependencies, and type-checks the non-standard ones in that order
// from their non-test files. The standard library comes from export data.
func typeCheckTree() (*typedTree, error) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", nil)
	loaded := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := loaded[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	tt := &typedTree{fset: fset, imp: imp}
	for _, module := range []string{".", "benchmark"} {
		cmd := exec.Command("go", "list", "-deps", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{.Standard}}\t{{join .GoFiles \"\\t\"}}", "./...")
		cmd.Dir = module
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", module, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			f := strings.Split(line, "\t")
			path, dir := f[0], f[1]
			if f[2] == "true" || loaded[path] != nil {
				continue
			}
			p := &typedPackage{info: &types.Info{
				Defs: map[*ast.Ident]types.Object{},
				Uses: map[*ast.Ident]types.Object{},
			}}
			for _, name := range f[3:] {
				file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				p.files = append(p.files, file)
			}
			conf := types.Config{Importer: imp}
			if p.pkg, err = conf.Check(path, fset, p.files, p.info); err != nil {
				return nil, fmt.Errorf("type-checking %s: %v", path, err)
			}
			loaded[path] = p.pkg
			tt.pkgs = append(tt.pkgs, p)
		}
	}
	if loaded["ndsm/benchmark"] == nil {
		return nil, fmt.Errorf("go list did not load ndsm/benchmark")
	}
	return tt, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
