package main

import (
	"dabench/internal/platform"
	"dabench/internal/provenance"
	"dabench/internal/store"

	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownCommand(t *testing.T) {
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown command accepted")
	}
}

func TestRunProfile(t *testing.T) {
	args := []string{"profile", "-platform", "rdu", "-model", "gpt2-small",
		"-layers", "8", "-batch", "4", "-precision", "bf16", "-mode", "O3"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"profile", "-platform", "nope"}); err == nil {
		t.Error("unknown platform accepted")
	}
	const wantModelErr = `unknown model "nope" (try: dabench list)`
	if err := run([]string{"profile", "-model", "nope"}); err == nil || err.Error() != wantModelErr {
		t.Errorf("unknown model: err = %v, want %s", err, wantModelErr)
	}
	if err := run([]string{"profile", "-precision", "int4"}); err == nil {
		t.Error("unknown precision accepted")
	}
	if err := run([]string{"profile", "-platform", "rdu", "-mode", "O7"}); err == nil {
		t.Error("unknown mode accepted")
	}
	// A negative depth is rejected, as /v1/run rejects it; zero batch
	// and seq take the defaults, as they do on /v1/run.
	if err := run([]string{"profile", "-layers", "-1"}); err == nil {
		t.Error("negative -layers accepted")
	}
	if err := run([]string{"profile", "-layers", "2", "-batch", "0", "-seq", "0"}); err != nil {
		t.Errorf("-batch 0 -seq 0 rejected: %v", err)
	}
}

func TestRunExperimentsSelection(t *testing.T) {
	if err := run([]string{"experiments", "table4"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"experiments", "-csv", "table1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"experiments", "nope"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunExperimentsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	if err := run([]string{"experiments", "-q", "-cpuprofile", cpu, "-memprofile", mem, "table1"}); err != nil {
		if strings.Contains(err.Error(), "cpu profiling already in use") {
			t.Skip("test binary is running under go test -cpuprofile")
		}
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	if err := run([]string{"experiments", "-cpuprofile", filepath.Join(dir, "no", "such", "dir", "x"), "table1"}); err == nil {
		t.Error("unwritable cpuprofile path accepted")
	}
}

func TestRunExperimentsFlagValidation(t *testing.T) {
	if err := run([]string{"experiments", "-parallel", "0", "table1"}); err == nil {
		t.Error("-parallel 0 accepted")
	}
	if err := run([]string{"experiments", "-parallel", "100000", "table1"}); err == nil {
		t.Error("-parallel above sweep.MaxWorkers accepted")
	}
	dir := t.TempDir()
	if err := run([]string{"experiments", "-trace", dir, "table1"}); err == nil || !strings.Contains(err.Error(), "directory") {
		t.Errorf("-trace pointing at a directory not rejected clearly: %v", err)
	}
}

func TestRunAnalyze(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")

	// Produce a real trace via the experiments pipeline, then analyze it.
	if err := run([]string{"experiments", "-q", "-trace", path, "table1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"analyze", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"analyze", "-csv", path}); err != nil {
		t.Fatal(err)
	}

	if err := run([]string{"analyze"}); err == nil {
		t.Error("analyze without a file accepted")
	}
	if err := run([]string{"analyze", filepath.Join(dir, "missing.jsonl")}); err == nil {
		t.Error("analyze of a missing file accepted")
	}
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"analyze", empty}); err == nil || !strings.Contains(err.Error(), "no trace records") {
		t.Errorf("empty trace not rejected clearly: %v", err)
	}
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"analyze", bad}); err == nil {
		t.Error("malformed trace accepted")
	}
}

func TestHelpAndDefault(t *testing.T) {
	if err := run([]string{"help"}); err != nil {
		t.Fatal(err)
	}
}

func TestPickPlatformAliases(t *testing.T) {
	for _, name := range []string{"wse", "cerebras", "rdu", "sambanova", "ipu", "graphcore", "gpu", "a100"} {
		if err := run([]string{"profile", "-platform", name, "-layers", "2"}); err != nil {
			t.Errorf("alias %q rejected: %v", name, err)
		}
	}
}

func TestScenarioCommands(t *testing.T) {
	if err := run([]string{"scenario", "list"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"scenario"}); err == nil {
		t.Error("bare scenario accepted")
	}
	if err := run([]string{"scenario", "bogus"}); err == nil {
		t.Error("unknown scenario subcommand accepted")
	}
	if err := run([]string{"scenario", "run"}); err == nil {
		t.Error("scenario run without an argument accepted")
	}
	if err := run([]string{"scenario", "run", "no-such-scenario"}); err == nil {
		t.Error("unknown scenario name accepted")
	}
	if err := run([]string{"scenario", "run", "-parallel", "0", "rdu-build-modes"}); err == nil {
		t.Error("-parallel 0 accepted")
	}
	if err := run([]string{"scenario", "run", "-q", "rdu-build-modes"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"scenario", "run", "-q", "-csv", "rdu-build-modes"}); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioRunFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "study.json")
	doc := `{"version":1,"name":"file-study","platforms":["wse"],` +
		`"base":{"model":"gpt2-small"},"grid":{"layers":[2,4]}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"scenario", "run", "-q", path}); err != nil {
		t.Fatal(err)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":99,"name":"x","platforms":["wse"],"base":{"model":"gpt2-small"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"scenario", "run", "-q", bad}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("wrong-version scenario not rejected clearly: %v", err)
	}
}

// TestStoreFlagsAreGone: the CLI mounts no result store, so neither
// store flag parses on either subcommand that used to take them.
func TestStoreFlagsAreGone(t *testing.T) {
	for _, args := range [][]string{
		{"experiments", "-data-dir", t.TempDir(), "table4"},
		{"experiments", "-store-budget", "1024", "table4"},
		{"scenario", "run", "-data-dir", t.TempDir(), "rdu-build-modes"},
		{"scenario", "run", "-store-budget", "1024", "rdu-build-modes"},
	} {
		var err error
		captureStderr(t, func() { err = run(args) })
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%q: %v, want an undefined-flag error", args, err)
		}
	}
}

// chainedStore opens a store in dir with the provenance hook mounted —
// the same wiring the daemon uses — and writes the given
// spec-key → platform blobs through it.
func chainedStore(t *testing.T, dir string, blobs map[string]string) {
	t.Helper()
	prov, err := provenance.Open(filepath.Join(dir, "provenance.log"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenOptions(filepath.Join(dir, "store"), store.Options{
		OnWrite: func(ev store.WriteEvent) {
			prov.Append(ev.Addr, ev.Platform, ev.SpecKey, store.PipelineVersion)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for key, pn := range blobs {
		st.Store(pn, key, platform.Stored{Failed: true, FailReason: "test blob"})
	}
	st.Close() // flushes the write-behind queue, firing the hook
	prov.Close()
}

func TestProvenanceVerifyOK(t *testing.T) {
	dir := t.TempDir()
	chainedStore(t, dir, map[string]string{"spec-a": "WSE-2", "spec-b": "SN30"})
	if err := runProvenance([]string{"verify", "-data-dir", dir}); err != nil {
		t.Fatalf("verify of an intact chain failed: %v", err)
	}
}

// TestProvenanceVerifyTampered pins the contract the chain exists for:
// mutating one interior record makes verification fail loudly.
func TestProvenanceVerifyTampered(t *testing.T) {
	dir := t.TempDir()
	chainedStore(t, dir, map[string]string{"spec-a": "WSE-2", "spec-b": "SN30"})
	path := filepath.Join(dir, "provenance.log")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	target := `"pipeline_version":` + strconv.Itoa(store.PipelineVersion)
	tampered := strings.Replace(string(b), target, `"pipeline_version":9`, 1)
	if tampered == string(b) {
		t.Fatal("tamper target not found in chain file")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	err = runProvenance([]string{"verify", "-data-dir", dir})
	if err == nil {
		t.Fatal("verify accepted a tampered record")
	}
	if !strings.Contains(err.Error(), "tampered") && !strings.Contains(err.Error(), "chain broken") {
		t.Errorf("tamper error %q does not name the damage", err)
	}
}

// TestProvenanceVerifyUnchainedBlob: a blob on disk with no chain
// record (written outside the hook) must fail the cross-check.
func TestProvenanceVerifyUnchainedBlob(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenOptions(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Store("WSE-2", "spec-rogue", platform.Stored{Failed: true, FailReason: "test blob"})
	st.Close()
	err = runProvenance([]string{"verify", "-data-dir", dir})
	if err == nil || !strings.Contains(err.Error(), "unaccounted") {
		t.Errorf("verify of an unchained blob = %v, want unaccounted-for failure", err)
	}
}

// TestProvenanceVerifyEmpty: a data dir that was never written to
// verifies clean (empty chain, no blobs).
func TestProvenanceVerifyEmpty(t *testing.T) {
	if err := runProvenance([]string{"verify", "-data-dir", t.TempDir()}); err != nil {
		t.Fatalf("verify of an empty data dir failed: %v", err)
	}
}

func TestProvenanceUsage(t *testing.T) {
	if err := run([]string{"provenance"}); err == nil {
		t.Error("bare provenance command should fail with usage")
	}
	if err := run([]string{"provenance", "verify"}); err == nil {
		t.Error("verify without -data-dir should fail")
	}
}

func TestVersionCommand(t *testing.T) {
	for _, arg := range []string{"version", "-version", "--version"} {
		if err := run([]string{arg}); err != nil {
			t.Errorf("%s: %v", arg, err)
		}
	}
}

// TestHelpFlagSucceeds requires every subcommand's -h to print its
// usage to stderr and succeed, so the binary exits 0 without an error
// line, as `dabench help` does.
func TestHelpFlagSucceeds(t *testing.T) {
	for _, args := range [][]string{
		{"experiments", "-h"},
		{"profile", "-h"},
		{"analyze", "-h"},
		{"scenario", "run", "-h"},
		{"provenance", "verify", "-h"},
	} {
		var err error
		usage := captureStderr(t, func() { err = run(args) })
		if err != nil {
			t.Errorf("%q: %v, want success", args, err)
		}
		if !strings.Contains(usage, "Usage of ") || !strings.Contains(usage, "  -") {
			t.Errorf("%q printed no flag usage on stderr: %q", args, usage)
		}
	}
}

// captureStderr runs fn with os.Stderr redirected to a pipe and returns
// what fn wrote there.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = stderr }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	fn()
	w.Close()
	return <-out
}
