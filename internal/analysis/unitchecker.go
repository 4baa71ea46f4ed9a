package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"
)

// unitchecker.go is the suite's one driver. It speaks cmd/go's
// vettool protocol, so the suite runs as `go vet
// -vettool=$(which dalint) ./...`: the go command plans the build,
// compiles dependencies, and invokes dalint once per package with a
// JSON config file naming the sources and every dependency's export
// data. This is a stdlib re-implementation of the x/tools unitchecker
// contract (the module has no third-party dependencies); the config
// struct mirrors cmd/go/internal/work's vetConfig field for field.

// VetConfig is the JSON payload cmd/go writes to <objdir>/vet.cfg.
type VetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ModulePath    string
	ModuleVersion string
	ImportMap     map[string]string
	PackageFile   map[string]string
	Standard      map[string]bool
	PackageVetx   map[string]string
	VetxOnly      bool
	VetxOutput    string
	GoVersion     string

	SucceedOnTypecheckFailure bool
}

// RunVet executes one vettool invocation against cfgPath and returns
// the process exit code: 0 clean, 2 when diagnostics were reported,
// 1 on operational failure. Diagnostics go to w in the conventional
// file:line:col form.
func RunVet(cfgPath string, analyzers []*Analyzer, w io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(w, "dalint: %v\n", err)
		return 1
	}
	var cfg VetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(w, "dalint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The go command requires the vetx output file to exist after
	// every run — including VetxOnly dependency passes — so it can
	// cache the (empty) fact set. dalint's analyzers exchange no
	// facts, so dependencies cost one file create and nothing else.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("dalint: no facts\n"), 0o666); err != nil {
			fmt.Fprintf(w, "dalint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(w, "dalint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return 0
	}
	imp := newExportImporter(fset, cfg.ImportMap, cfg.PackageFile)
	pkg, info, err := Typecheck(fset, files, CanonicalPkgPath(cfg.ImportPath), imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(w, "dalint: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	diags := CheckPackage(fset, files, cfg.ImportPath, pkg, info, analyzers)
	for _, d := range diags {
		fmt.Fprintf(w, "%s\n", d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// IsVetInvocation reports whether argv looks like a cmd/go vettool
// call: the last argument is a *.cfg file. go vet may prepend
// analyzer flags; dalint accepts and ignores ones it does not know.
func IsVetInvocation(args []string) (cfgPath string, ok bool) {
	if len(args) == 0 {
		return "", false
	}
	last := args[len(args)-1]
	if strings.HasSuffix(last, ".cfg") {
		return last, true
	}
	return "", false
}

// Typecheck runs go/types over parsed files with the given importer,
// returning the package and a fully populated Info. Shared by the
// vettool driver and the test fixture loader.
func Typecheck(fset *token.FileSet, files []*ast.File, path string, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// newExportImporter builds an importer that resolves source import
// paths through importMap (test variants, vendoring) and reads gc
// export data files from exports.
func newExportImporter(fset *token.FileSet, importMap map[string]string, exports map[string]string) types.Importer {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return gc.(types.ImporterFrom).ImportFrom(path, "", 0)
	})
}
