package ndsm_test

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// apiAllowlist names the exported functions and methods that no program
// calls and that stay anyway, each with its one reason. A name no program
// calls and that has none of these four reasons is deleted with its tests.
var apiAllowlist = map[string]string{
	// Paper features no experiment or program exercises. EXPERIMENTS.md
	// lists each as built and unmeasured.
	"Within":              "paper feature: §3.5 location service",
	"InLogicalArea":       "paper feature: §3.5 location service",
	"Stale":               "paper feature: §3.5 location service",
	"WillLeave":           "paper feature: §3.7 departure prediction",
	"NewDepartureMonitor": "paper feature: §3.7 departure hand-off",
	"Submit":              "paper feature: §3.7 priority dispatch",
	"Backlog":             "paper feature: §3.7 priority dispatch",
	"Shed":                "paper feature: §3.7 priority dispatch",
	"Available":           "paper feature: §3.7 bandwidth constraints (token bucket)",
	"SendReliable":        "paper feature: §3.6 per-connection ack and dedupe (Link)",
	"Poll":                "paper feature: §3.6 continuous transactions",
	"Rd":                  "paper feature: §3.1 tuple-space read",
	"NotifyTake":          "paper feature: §3.1 tuple-space consuming reaction",
	"Unsubscribe":         "paper feature: §3.1 publish/subscribe",
	"PushAsync":           "paper feature: §3.1 pipelined message-queue push",

	// Test seams: how a test observes live behaviour.
	"Pending":            "test seam: simtime.Virtual timers",
	"AdvanceToNext":      "test seam: simtime.Virtual timers",
	"SetHealth":          "test seam: webbridge wiring",
	"SetMetricsRegistry": "test seam: webbridge wiring",
	"SetTraceCollector":  "test seam: webbridge wiring",
	"NextLSN":            "test seam: WAL position",
	"DroppedFrames":      "test seam: sim transport loss",
	"Routes":             "test seam: distance-vector table",
	"CacheLen":           "test seam: discovery agent cache",
	"Objectives":         "test seam: SLO engine",
	"TopicStats":         "test seam: telemetry aggregator",
	"Predicted":          "test seam: continuous-transaction predictor",
	"Transactions":       "test seam: a node's transaction table",
	"Withdraw":           "test seam: supplier departure in the integration test",
	"Subscriptions":      "test seam: pub/sub broker registrations",
	"EventsString":       "test seam: chaos event trace",
	"Cap":                "test seam: telemetry series window",
	"Last":               "test seam: telemetry series window",
	"MonotoneAfterOnset": "test seam: bibliometrics series shape",

	// References the tests hold the fast paths to.
	"AppendFrame":  "test reference: FuzzFrameStream and TestAppendFrameMatchesWriteFrame",
	"WriteMessage": "test reference: the unbatched message framing the wire tests read back",

	// The root ndsm facade: one public name, no code path.
	"NewTCPTransport": "root facade: the public TCP constructor",
}

// interfaceMethods are the standard-library interface methods the tree
// implements whose names no call site spells: the library calls them
// through sort.Interface, json.Marshaler and http.Handler.
var interfaceMethods = map[string]bool{"Less": true, "MarshalJSON": true, "ServeHTTP": true}

// TestNoExportedFuncOnlyTestsReach counts every exported function and method
// name against the identifiers and string words of every non-test Go file
// in the tree, comments excluded, benchmark/ included. A name that appears
// only at its own declarations is reached by tests alone: delete it, or put
// it on apiAllowlist with its reason.
func TestNoExportedFuncOnlyTestsReach(t *testing.T) {
	decls := map[string]int{}    // exported func/method name -> declarations
	where := map[string]string{} // name -> one declaring file, for the report
	uses := map[string]int{}     // word -> occurrences outside comments
	fset := token.NewFileSet()
	for _, sf := range nonTestFiles(t, fset) {
		for _, decl := range sf.f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				decls[fn.Name.Name]++
				where[fn.Name.Name] = sf.path
			}
		}
		countWords(fset, sf.path, sf.src, uses)
	}

	var unreached []string
	for name, n := range decls {
		if uses[name] > n || interfaceMethods[name] {
			continue
		}
		if _, ok := apiAllowlist[name]; !ok {
			unreached = append(unreached, name+" ("+where[name]+")")
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("exported %s appears only at its declaration: delete it or allowlist it with a reason", u)
	}
	for name := range apiAllowlist {
		if decls[name] == 0 || uses[name] > decls[name] {
			t.Errorf("allowlisted %s is undeclared or has a caller: drop it from apiAllowlist", name)
		}
	}
}

// sourceFile is one parsed non-test Go file of the tree.
type sourceFile struct {
	path string
	src  []byte
	f    *ast.File
}

// nonTestFiles parses every non-test Go file under the module root,
// benchmark/ included, skipping hidden directories and testdata.
func nonTestFiles(t *testing.T, fset *token.FileSet) []sourceFile {
	t.Helper()
	var files []sourceFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{path: path, src: src, f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// countWords adds every identifier, and every word inside a string literal,
// of one file to uses. The scanner skips comments.
func countWords(fset *token.FileSet, path string, src []byte, uses map[string]int) {
	var s scanner.Scanner
	s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
	for {
		_, tok, lit := s.Scan()
		switch tok {
		case token.EOF:
			return
		case token.IDENT:
			uses[lit]++
		case token.STRING, token.CHAR:
			for _, w := range strings.FieldsFunc(lit, func(r rune) bool {
				return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_'
			}) {
				uses[w]++
			}
		}
	}
}
