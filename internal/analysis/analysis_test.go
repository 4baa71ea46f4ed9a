package analysis

// analysis_test.go covers the framework around the analyzers: the
// suppression grammar and the vettool protocol (RunVet against a
// handcrafted vet.cfg).

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseSuppression(t *testing.T) {
	cases := []struct {
		text  string
		names []string // nil => not a valid suppression
	}{
		{"//dalint:ignore noctxbg -- lifecycle root", []string{"noctxbg"}},
		{"//dalint:ignore noctxbg, addrgate -- caller validated", []string{"noctxbg", "addrgate"}},
		{"//dalint:ignore noctxbg", nil},            // no justification
		{"//dalint:ignore noctxbg --", nil},         // empty justification
		{"//dalint:ignore noctxbg --   ", nil},      // whitespace justification
		{"//dalint:ignore -- reason only", nil},     // no analyzer names
		{"// dalint:ignore noctxbg -- reason", nil}, // space breaks the marker
		{"// plain comment", nil},
	}
	for _, c := range cases {
		s := parseSuppression(c.text)
		if c.names == nil {
			if s != nil {
				t.Errorf("parseSuppression(%q) = %v, want nil", c.text, s.names)
			}
			continue
		}
		if s == nil {
			t.Errorf("parseSuppression(%q) = nil, want %v", c.text, c.names)
			continue
		}
		for _, n := range c.names {
			if !s.names[n] {
				t.Errorf("parseSuppression(%q) missing analyzer %q", c.text, n)
			}
		}
		if len(s.names) != len(c.names) {
			t.Errorf("parseSuppression(%q) = %v, want exactly %v", c.text, s.names, c.names)
		}
	}
}

func TestIsVetInvocation(t *testing.T) {
	if _, ok := IsVetInvocation([]string{"-list"}); ok {
		t.Error("-list misread as a vet invocation")
	}
	cfg, ok := IsVetInvocation([]string{"-someflag", "/tmp/b001/vet.cfg"})
	if !ok || cfg != "/tmp/b001/vet.cfg" {
		t.Errorf("vet.cfg invocation not recognized: %q %v", cfg, ok)
	}
}

// writeVetCfg marshals a VetConfig the way cmd/go does and returns
// its path.
func writeVetCfg(t *testing.T, cfg VetConfig) string {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vet.cfg")
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunVetReportsViolation drives the full vettool path — config
// parse, export-data import, typecheck, analysis, diagnostic
// rendering, exit code — over a synthetic request-path package with a
// noctxbg violation.
func TestRunVetReportsViolation(t *testing.T) {
	std := stdExportData(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "jobs.go")
	const body = `package jobs

import "context"

func Mint() context.Context { return context.Background() }
`
	if err := os.WriteFile(src, []byte(body), 0o666); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "vet.out")
	cfg := writeVetCfg(t, VetConfig{
		ImportPath:  "dabench/internal/jobs",
		GoFiles:     []string{src},
		ImportMap:   map[string]string{"context": "context"},
		PackageFile: std,
		VetxOutput:  vetx,
	})
	var out bytes.Buffer
	if code := RunVet(cfg, All(), &out); code != 2 {
		t.Fatalf("RunVet = %d, want 2; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "context.Background() in request-path package dabench/internal/jobs") ||
		!strings.Contains(out.String(), "[noctxbg]") {
		t.Errorf("diagnostic missing or malformed:\n%s", out.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("vetx output not written: %v", err)
	}
}

// TestRunVetVetxOnly pins the dependency-pass contract: exit 0, vetx
// file written, sources never parsed (GoFiles may even be absent).
func TestRunVetVetxOnly(t *testing.T) {
	vetx := filepath.Join(t.TempDir(), "vet.out")
	cfg := writeVetCfg(t, VetConfig{
		ImportPath: "dabench/internal/whatever",
		GoFiles:    []string{"/nonexistent/nope.go"},
		VetxOnly:   true,
		VetxOutput: vetx,
	})
	var out bytes.Buffer
	if code := RunVet(cfg, All(), &out); code != 0 {
		t.Fatalf("RunVet(VetxOnly) = %d, want 0; output:\n%s", code, out.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("vetx output not written: %v", err)
	}
}
