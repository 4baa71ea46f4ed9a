package faults

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"no rules", Spec{}},
		{"bad op", Spec{Rules: []Rule{{Op: "disk.write", Kind: KindEIO}}}},
		{"bad kind", Spec{Rules: []Rule{{Op: OpStoreRead, Kind: "EPERM"}}}},
		{"probability > 1", Spec{Rules: []Rule{{Op: OpStoreRead, Kind: KindEIO, Probability: 1.5}}}},
		{"negative probability", Spec{Rules: []Rule{{Op: OpStoreRead, Kind: KindEIO, Probability: -0.1}}}},
		{"negative delay", Spec{Rules: []Rule{{Op: OpStoreRead, Kind: KindSlow, DelayMs: -1}}}},
		{"delay over an hour", Spec{Rules: []Rule{{Op: OpStoreRead, Kind: KindSlow, DelayMs: MaxDelayMs + 1}}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.spec); err == nil {
			t.Errorf("%s: New accepted an invalid spec", tc.name)
		}
	}
}

// TestDelayBound: a delay_ms whose stall would wrap time.Duration to
// 0 ns is rejected, and one hour is the largest delay accepted.
func TestDelayBound(t *testing.T) {
	if _, err := Parse([]byte(`{"rules":[{"op":"compile","kind":"slow","delay_ms":9300000000000}]}`)); err == nil {
		t.Error("Parse accepted a delay_ms that wraps time.Duration")
	}
	in, err := Parse([]byte(`{"rules":[{"op":"compile","kind":"slow","delay_ms":3600000}]}`))
	if err != nil {
		t.Fatalf("Parse rejected a one-hour delay: %v", err)
	}
	if d := in.rules[0].DelayMs; d != MaxDelayMs {
		t.Errorf("delay_ms = %d, want %d", d, MaxDelayMs)
	}
}

func TestParseStrict(t *testing.T) {
	if _, err := Parse([]byte(`{"rules":[{"op":"store.read","kind":"EIO"}],"bogus":1}`)); err == nil {
		t.Error("Parse accepted an unknown field")
	}
	if _, err := Parse([]byte(`{"rules":[{"op":"store.read","kind":"EIO"}]} extra`)); err == nil {
		t.Error("Parse accepted trailing data")
	}
	in, err := Parse([]byte(`{"seed":7,"rules":[{"op":"store.read","kind":"EIO","probability":0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if in.Stats().Seed != 7 {
		t.Errorf("seed = %d, want 7", in.Stats().Seed)
	}
}

func TestFireDeterministicAndBudgeted(t *testing.T) {
	spec := Spec{Seed: 42, Rules: []Rule{{Op: OpStoreWrite, Kind: KindEIO, Probability: 0.3}}}
	outcomes := func() []bool {
		in, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		var seq []bool
		for i := 0; i < 200; i++ {
			seq = append(seq, in.Fire(OpStoreWrite) != nil)
		}
		return seq
	}
	a, b := outcomes(), outcomes()
	var fired int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at evaluation %d", i)
		}
		if a[i] {
			fired++
		}
	}
	// 200 evaluations at p=0.3: the exact count is seed-determined, but
	// it must be in the right ballpark, not 0 or 200.
	if fired < 30 || fired > 110 {
		t.Errorf("p=0.3 fired %d/200 times", fired)
	}

	in, err := New(Spec{Rules: []Rule{{Op: OpChunkRun, Kind: KindEIO, Count: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	var hits int
	for i := 0; i < 10; i++ {
		if in.Fire(OpChunkRun) != nil {
			hits++
		}
	}
	if hits != 3 {
		t.Errorf("budget 3 fired %d times", hits)
	}
	st := in.Stats()
	if st.Fired != 3 || st.Rules[0].Remaining != 0 {
		t.Errorf("stats = %+v, want fired 3 remaining 0", st)
	}
}

func TestFireMatchesOpOnly(t *testing.T) {
	in, err := New(Spec{Rules: []Rule{{Op: OpJournalSync, Kind: KindEIO}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Fire(OpJournalAppend); err != nil {
		t.Errorf("append fired a sync-only rule: %v", err)
	}
	if err := in.Fire(OpJournalSync); err == nil {
		t.Error("sync rule did not fire")
	}
}

func TestErrorKindsWrapSentinels(t *testing.T) {
	cases := []struct {
		kind Kind
		want error
	}{
		{KindEIO, syscall.EIO},
		{KindENOSPC, syscall.ENOSPC},
		{KindTimeout, os.ErrDeadlineExceeded},
	}
	for _, tc := range cases {
		in, err := New(Spec{Rules: []Rule{{Op: OpStoreWrite, Kind: tc.kind}}})
		if err != nil {
			t.Fatal(err)
		}
		got := in.Fire(OpStoreWrite)
		if !errors.Is(got, tc.want) {
			t.Errorf("kind %s: errors.Is(%v, %v) = false", tc.kind, got, tc.want)
		}
		if !IsInjected(got) {
			t.Errorf("kind %s: IsInjected = false", tc.kind)
		}
	}
}

func TestCorruptAndSlowKinds(t *testing.T) {
	in, err := New(Spec{Rules: []Rule{{Op: OpStoreRead, Kind: KindCorrupt}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Fire(OpStoreRead); !IsCorrupt(got) {
		t.Errorf("IsCorrupt(%v) = false", got)
	}

	in, err = New(Spec{Rules: []Rule{{Op: OpCompile, Kind: KindSlow, DelayMs: 30}}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if got := in.Fire(OpCompile); got != nil {
		t.Errorf("slow rule returned an error: %v", got)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("slow rule stalled only %v", d)
	}
}

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if err := in.Fire(OpStoreRead); err != nil {
		t.Errorf("nil injector fired: %v", err)
	}
	if st := in.Stats(); st != nil {
		t.Errorf("nil injector stats = %+v", st)
	}
}

func TestLoadFileAndInline(t *testing.T) {
	if _, err := Load(`{"rules":[{"op":"compile","kind":"timeout"}]}`); err != nil {
		t.Errorf("inline load: %v", err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(`{"rules":[{"op":"compile","kind":"timeout"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Errorf("file load: %v", err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file load succeeded")
	}
}
