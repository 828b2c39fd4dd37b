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
	fset   *token.FileSet
	pkgs   []*typedPackage
	imp    types.Importer
	loaded map[string]*types.Package
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

// newTypedTree returns an empty tree whose importer serves the packages added
// to it and, from export data, the standard library.
func newTypedTree() *typedTree {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", nil)
	tt := &typedTree{fset: fset, loaded: map[string]*types.Package{}}
	tt.imp = importerFunc(func(path string) (*types.Package, error) {
		if p, ok := tt.loaded[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	return tt
}

// add type-checks one package from its parsed files; what it imports must
// already be in the tree or in the standard library.
func (tt *typedTree) add(path string, files []*ast.File) error {
	p := &typedPackage{files: files, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	conf := types.Config{Importer: tt.imp}
	var err error
	if p.pkg, err = conf.Check(path, tt.fset, files, p.info); err != nil {
		return fmt.Errorf("type-checking %s: %v", path, err)
	}
	tt.loaded[path] = p.pkg
	tt.pkgs = append(tt.pkgs, p)
	return nil
}

// typeCheckTree lists the packages of the root module and of benchmark/ with
// their dependencies, and type-checks the non-standard ones in that order
// from their non-test files. The standard library comes from export data.
func typeCheckTree() (*typedTree, error) {
	tt := newTypedTree()
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
			if f[2] == "true" || tt.loaded[path] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range f[3:] {
				file, err := parser.ParseFile(tt.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				files = append(files, file)
			}
			if err := tt.add(path, files); err != nil {
				return nil, err
			}
		}
	}
	if tt.loaded["ndsm/benchmark"] == nil {
		return nil, fmt.Errorf("go list did not load ndsm/benchmark")
	}
	return tt, nil
}

// typeCheckSources type-checks small packages given as source, one file
// each, in order: a package may import the standard library and the ones
// before it.
func typeCheckSources(t *testing.T, srcs ...[2]string) *typedTree {
	t.Helper()
	tt := newTypedTree()
	for _, src := range srcs {
		file, err := parser.ParseFile(tt.fset, src[0]+".go", src[1], parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if err := tt.add(src[0], []*ast.File{file}); err != nil {
			t.Fatal(err)
		}
	}
	return tt
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
