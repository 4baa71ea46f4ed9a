package analysis

// fixture_test.go is the suite's analysistest: each analyzer has a
// golden package under testdata/src/<path> whose files carry
// `// want "regexp"` annotations on the lines that must be reported
// (and //dalint:ignore suppressions on the lines that must not).
// Fixtures for path-gated analyzers mirror the real import paths
// (testdata/src/dabench/internal/store, ...) so the gating logic is
// exercised exactly as in production; stub packages under the same
// tree stand in for the real dependencies.
//
// Loading works like the production drivers: fixture packages are
// type-checked from source, with standard-library imports satisfied
// by gc export data from one cached `go list -export` call — no
// third-party loader involved.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// stdImports are the standard-library packages fixture files may
// import; their export data (plus transitive deps) is resolved once.
var stdImports = []string{
	"context", "sync", "sync/atomic", "os", "path/filepath",
	"net/http", "strings", "errors", "fmt", "time", "io",
}

var (
	stdOnce    sync.Once
	stdExports map[string]string
	stdErr     error
)

func stdExportData(t *testing.T) map[string]string {
	t.Helper()
	stdOnce.Do(func() {
		args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export,Standard"}, stdImports...)
		cmd := exec.Command("go", args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			stdErr = fmt.Errorf("go list: %v\n%s", err, stderr.String())
			return
		}
		stdExports = map[string]string{}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct {
				ImportPath string
				Export     string
			}
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				stdErr = err
				return
			}
			if p.Export != "" {
				stdExports[p.ImportPath] = p.Export
			}
		}
	})
	if stdErr != nil {
		t.Fatalf("loading std export data: %v", stdErr)
	}
	return stdExports
}

// fixtureLoader type-checks testdata packages from source,
// recursively, delegating std imports to export data.
type fixtureLoader struct {
	t    *testing.T
	fset *token.FileSet
	root string // testdata/src
	std  types.Importer
	pkgs map[string]*fixturePkg
}

type fixturePkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func newFixtureLoader(t *testing.T) *fixtureLoader {
	fset := token.NewFileSet()
	return &fixtureLoader{
		t:    t,
		fset: fset,
		root: filepath.Join("testdata", "src"),
		std:  newExportImporter(fset, nil, stdExportData(t)),
		pkgs: map[string]*fixturePkg{},
	}
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.root, path); isDir(dir) {
		fp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return fp.pkg, nil
	}
	return l.std.Import(path)
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

func (l *fixtureLoader) load(path string) (*fixturePkg, error) {
	if fp, ok := l.pkgs[path]; ok {
		return fp, nil
	}
	dir := filepath.Join(l.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s has no Go files", path)
	}
	pkg, info, err := Typecheck(l.fset, files, path, l)
	if err != nil {
		return nil, fmt.Errorf("typechecking fixture %s: %v", path, err)
	}
	fp := &fixturePkg{path: path, files: files, pkg: pkg, info: info}
	l.pkgs[path] = fp
	return fp, nil
}

// wantRe extracts `// want "regexp"` annotations (double- or
// back-quoted).
var wantRe = regexp.MustCompile("// want (?:\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`)")

// runFixture checks analyzer a over the fixture package at path and
// asserts its diagnostics match the package's want annotations
// exactly: every annotated line must be reported with a matching
// message, and no unannotated line may be reported.
func runFixture(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	l := newFixtureLoader(t)
	fp, err := l.load(path)
	if err != nil {
		t.Fatal(err)
	}
	diags := CheckPackage(l.fset, fp.files, fp.path, fp.pkg, fp.info, []*Analyzer{a})

	// Collect wants: file -> line -> regexp (unmatched until claimed).
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := map[string]map[int][]*want{}
	for _, f := range fp.files {
		filename := l.fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				expr := m[1]
				if expr == "" {
					expr = m[2]
				}
				re, err := regexp.Compile(expr)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", filename, expr, err)
				}
				line := l.fset.Position(c.Pos()).Line
				if wants[filename] == nil {
					wants[filename] = map[int][]*want{}
				}
				wants[filename][line] = append(wants[filename][line], &want{re: re})
			}
		}
	}

	for _, d := range diags {
		claimed := false
		for _, w := range wants[d.Position.Filename][d.Position.Line] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic at %s:%d: %s", d.Position.Filename, d.Position.Line, d.Message)
		}
	}
	for filename, byLine := range wants {
		for line, ws := range byLine {
			for _, w := range ws {
				if !w.matched {
					t.Errorf("%s:%d: expected a diagnostic matching %q, got none", filename, line, w.re)
				}
			}
		}
	}
}

func TestAddrGateFixture(t *testing.T) { runFixture(t, AddrGate, "dabench/internal/store") }
func TestAddrGateClusterFixture(t *testing.T) {
	runFixture(t, AddrGate, "dabench/internal/cluster")
}
func TestAtomicPtrFixture(t *testing.T)  { runFixture(t, AtomicPtr, "atomicptr") }
func TestLockHeldIOFixture(t *testing.T) { runFixture(t, LockHeldIO, "dabench/internal/telemetry") }
func TestNoCtxBgFixture(t *testing.T)    { runFixture(t, NoCtxBg, "dabench/internal/jobs") }

// TestNoCtxBgUngatedPackage pins the gate itself: the same violating
// shape outside a request-path package reports nothing.
func TestNoCtxBgUngatedPackage(t *testing.T) { runFixture(t, NoCtxBg, "ungated") }
