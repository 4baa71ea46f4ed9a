// Package analysis is dabench's project-invariant analyzer suite: the
// codebase's unwritten rules, mechanized. Several correctness
// invariants used to live only in test suites and review comments —
// every externally supplied blob address must pass store.ValidAddr
// before touching a path, request paths must thread the caller's
// context. Such rules get broken by the next change, not this one, so
// each is an analyzer here and cmd/dalint runs the whole suite at
// `go vet -vettool` time.
//
// The framework is a deliberate, stdlib-only miniature of
// golang.org/x/tools/go/analysis: the module has no third-party
// dependencies, and the four analyzers need nothing the standard
// library's go/ast + go/types cannot provide. An Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. There
// is one driver, the vettool protocol in unitchecker.go; the fixture
// loader in the tests produces the same Pass from testdata sources.
//
// Suppression: a diagnostic is silenced by an inline comment on the
// reported line or the line above it, and the justification is not
// optional — the comment is the review artifact that replaces the
// analyzer's judgment:
//
//	//dalint:ignore <analyzer>[,<analyzer>] -- <why this is sound>
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the analyzer's identifier: what diagnostics carry and
	// what a //dalint:ignore comment names.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run inspects one package via pass and reports violations.
	Run func(pass *Pass)
}

// All returns the full suite in stable order. The slice is freshly
// allocated; callers may filter it.
func All() []*Analyzer {
	return []*Analyzer{
		AddrGate,
		AtomicPtr,
		LockHeldIO,
		NoCtxBg,
	}
}

// A Pass presents one type-checked package to one analyzer.
type Pass struct {
	Fset *token.FileSet
	// Files is the package's parsed syntax, comments included.
	Files []*ast.File
	// PkgPath is the canonical import path: test-variant suffixes
	// ("pkg [pkg.test]") are stripped, so path-gated analyzers treat a
	// package and its internal-test variant identically.
	PkgPath string
	Pkg     *types.Package
	Info    *types.Info

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

// String renders the conventional file:line:col form go vet users
// expect.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer)
}

// CanonicalPkgPath strips the build system's test-variant decoration
// ("dabench/internal/server [dabench/internal/server.test]") so
// analyzers gate on the source-level import path.
func CanonicalPkgPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// CheckPackage runs every analyzer in analyzers over one type-checked
// package and returns the surviving diagnostics: suppressed ones are
// filtered, the rest sorted by position. pkg and info come from the
// vettool driver or the test fixture loader.
func CheckPackage(fset *token.FileSet, files []*ast.File, pkgPath string, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:     fset,
			Files:    files,
			PkgPath:  CanonicalPkgPath(pkgPath),
			Pkg:      pkg,
			Info:     info,
			analyzer: a,
			diags:    &diags,
		}
		a.Run(pass)
	}
	diags = filterSuppressed(fset, files, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// ignorePrefix introduces a suppression comment.
const ignorePrefix = "//dalint:ignore"

// suppression is one parsed //dalint:ignore comment.
type suppression struct {
	names map[string]bool // analyzer names it silences
}

// parseSuppression parses one comment's text, returning nil when it is
// not a (valid) suppression. The justification after " -- " is
// mandatory: an ignore without a reason does not suppress anything,
// which keeps the syntax honest — the comment exists to carry the
// reason into review.
func parseSuppression(text string) *suppression {
	if !strings.HasPrefix(text, ignorePrefix) {
		return nil
	}
	rest := strings.TrimPrefix(text, ignorePrefix)
	names, reason, ok := strings.Cut(rest, "--")
	if !ok || strings.TrimSpace(reason) == "" {
		return nil
	}
	s := &suppression{names: map[string]bool{}}
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			s.names[n] = true
		}
	}
	if len(s.names) == 0 {
		return nil
	}
	return s
}

// filterSuppressed drops diagnostics covered by a //dalint:ignore
// comment on the same line or the line immediately above.
func filterSuppressed(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	if len(diags) == 0 {
		return diags
	}
	// file -> line -> suppressions active on that line.
	byLine := map[string]map[int][]*suppression{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				s := parseSuppression(c.Text)
				if s == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				m := byLine[pos.Filename]
				if m == nil {
					m = map[int][]*suppression{}
					byLine[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], s)
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if suppressedAt(byLine, d) {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

func suppressedAt(byLine map[string]map[int][]*suppression, d Diagnostic) bool {
	m := byLine[d.Position.Filename]
	if m == nil {
		return false
	}
	for _, line := range [2]int{d.Position.Line, d.Position.Line - 1} {
		for _, s := range m[line] {
			if s.names[d.Analyzer] {
				return true
			}
		}
	}
	return false
}

// --- shared type-inspection helpers -----------------------------------

// calleeFunc resolves a call expression to the *types.Func it invokes
// (function, method, or generic instantiation), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		switch x := ast.Unparen(fun.X).(type) {
		case *ast.Ident:
			id = x
		case *ast.SelectorExpr:
			id = x.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcPkgPath returns the canonical package path a function belongs
// to ("" for builtins).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return CanonicalPkgPath(fn.Pkg().Path())
}

// isCallTo reports whether call invokes a function or method named
// name whose package path has the given suffix match via pathMatches.
func isCallTo(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Name() == name && pathMatches(funcPkgPath(fn), pkgPath)
}

// pathMatches reports whether got identifies the project package want.
// Exact match is the production case; the suffix form ("a/b/c" matched
// by want "b/c" only at a path-segment boundary) lets analysistest
// fixtures under testdata/src mirror real packages without carrying
// the module prefix.
func pathMatches(got, want string) bool {
	if got == want {
		return true
	}
	return strings.HasSuffix(got, "/"+want)
}

// isTestFile reports whether pos lies in a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
