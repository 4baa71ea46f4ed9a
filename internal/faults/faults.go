// Package faults is the deterministic fault-injection layer behind the
// framework's resilience machinery. Nothing in the pipeline can be
// *tested* for graceful degradation unless something can make its I/O
// fail on demand — so the store, the job journal, the compile path and
// the job executor each carry one nil-checked *Injector hook, and this
// package supplies the injector: a seedable, rule-based fault source
// that components consult at their syscall boundaries.
//
// A rule matches one operation class (store read/write/remove, journal
// append/fsync, compile, chunk run) and fires with a configured
// probability, bounded by an optional fire-count budget, producing one
// of five fault kinds:
//
//   - EIO, ENOSPC: an injected error wrapping the matching syscall
//     errno, indistinguishable (via errors.Is) from the real thing.
//   - timeout: an injected error wrapping os.ErrDeadlineExceeded.
//   - corrupt: the operation "succeeds" but its payload is garbage —
//     components translate it into corrupted read data.
//   - slow: the operation stalls for delay_ms, then proceeds normally.
//
// Determinism: the injector's RNG is seeded from the spec, and rules
// consume budget per evaluation under one lock, so a single-threaded
// caller sequence replays identically. Under concurrency the *set* of
// fired faults is still budget-bounded, which is what the tests pin.
//
// The production fast path pays exactly one pointer compare: every hook
// site is `if inj != nil { inj.Fire(op) }` (Fire is additionally safe
// on a nil receiver, so forgetting the guard degrades to a nil check
// inside the call, never a panic).
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Op is an injectable operation class — the boundary a hook site sits
// on. Rules match ops exactly.
type Op string

// The injectable operation classes.
const (
	OpStoreRead     Op = "store.read"     // result-store blob read (os.ReadFile)
	OpStoreWrite    Op = "store.write"    // result-store write-behind persist
	OpStoreRemove   Op = "store.remove"   // result-store eviction/drop unlink
	OpJournalAppend Op = "journal.append" // job-journal line write
	OpJournalSync   Op = "journal.sync"   // job-journal fsync
	OpCompile       Op = "compile"        // one platform compile
	OpChunkRun      Op = "chunk.run"      // one async-job chunk execution
	OpPeerFetch     Op = "peer.fetch"     // one cluster peer HTTP call (gossip probe or blob fetch)
)

var validOps = map[Op]bool{
	OpStoreRead: true, OpStoreWrite: true, OpStoreRemove: true,
	OpJournalAppend: true, OpJournalSync: true,
	OpCompile: true, OpChunkRun: true, OpPeerFetch: true,
}

// Kind is the failure mode a fired rule produces.
type Kind string

// The fault kinds.
const (
	KindEIO     Kind = "EIO"
	KindENOSPC  Kind = "ENOSPC"
	KindTimeout Kind = "timeout"
	KindCorrupt Kind = "corrupt"
	KindSlow    Kind = "slow"
)

var validKinds = map[Kind]bool{
	KindEIO: true, KindENOSPC: true, KindTimeout: true,
	KindCorrupt: true, KindSlow: true,
}

// canonicalKind folds case so hand-written specs can say "eio" or
// "EIO" interchangeably; unknown kinds pass through for the error path.
func canonicalKind(k Kind) Kind {
	switch strings.ToLower(string(k)) {
	case "eio":
		return KindEIO
	case "enospc":
		return KindENOSPC
	case "timeout":
		return KindTimeout
	case "corrupt":
		return KindCorrupt
	case "slow":
		return KindSlow
	}
	return k
}

// Rule is one declarative fault source. The zero Probability means 1
// (always fire when evaluated); Count <= 0 means unlimited.
type Rule struct {
	// Op is the operation class the rule matches (required).
	Op Op `json:"op"`
	// Kind is the failure mode to inject (required).
	Kind Kind `json:"kind"`
	// Probability in (0, 1] is the per-evaluation fire chance; 0 is
	// shorthand for 1 (deterministic).
	Probability float64 `json:"probability,omitempty"`
	// Count bounds total fires; 0 = unlimited. Exhausted rules stop
	// matching, which is how a spec expresses "fail the first N
	// operations, then heal" — the shape breaker-recovery tests need.
	Count int64 `json:"count,omitempty"`
	// DelayMs is the stall for kind "slow" (default 10ms), at most
	// MaxDelayMs.
	DelayMs int `json:"delay_ms,omitempty"`
}

// MaxDelayMs bounds a rule's delay_ms at one hour. time.Duration holds
// about 2.5 million hours, so a larger value could wrap to no stall at
// all; at one hour a rule's stall cannot, and Fire's sum over the slow
// rules of one op only past 2.5 million of them.
const MaxDelayMs = 3_600_000

// Spec is the wire form of an injector configuration — what
// `dabenchd -fault-spec` loads.
type Spec struct {
	// Seed seeds the injector's RNG; 0 means 1 (specs must not get
	// accidental nondeterminism from a time-seeded default).
	Seed  int64  `json:"seed,omitempty"`
	Rules []Rule `json:"rules"`
}

// InjectedError is the error produced by a fired error-kind rule. It
// wraps the matching real-world sentinel (syscall.EIO, syscall.ENOSPC,
// os.ErrDeadlineExceeded) so component code that classifies transient
// errors with errors.Is treats injected faults exactly like real ones.
type InjectedError struct {
	Op   Op
	Kind Kind
}

// Error implements the error interface.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected %s on %s", e.Kind, e.Op)
}

// Unwrap maps the injected kind to its real-world sentinel.
func (e *InjectedError) Unwrap() error {
	switch e.Kind {
	case KindEIO:
		return syscall.EIO
	case KindENOSPC:
		return syscall.ENOSPC
	case KindTimeout:
		return os.ErrDeadlineExceeded
	default:
		return nil
	}
}

// IsInjected reports whether err originated from an Injector.
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}

// IsCorrupt reports whether err is an injected corruption fault — the
// one kind a read hook translates into garbage payload bytes rather
// than an I/O error.
func IsCorrupt(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie) && ie.Kind == KindCorrupt
}

// rule is a Rule compiled with its live counters.
type rule struct {
	Rule
	fired     int64
	remaining int64 // <0 = unlimited
}

// Injector is a live fault source. Create with New/Parse/Load; safe
// for concurrent use. A nil *Injector is a valid "no faults" injector.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	seed  int64
	rules []*rule
	fired int64
}

// New compiles a spec into an Injector, validating every rule.
func New(spec Spec) (*Injector, error) {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	if len(spec.Rules) == 0 {
		return nil, errors.New("faults: spec has no rules")
	}
	in := &Injector{rng: rand.New(rand.NewSource(seed)), seed: seed}
	for i, r := range spec.Rules {
		if !validOps[r.Op] {
			return nil, fmt.Errorf("faults: rule %d: unknown op %q (valid: store.read, store.write, store.remove, journal.append, journal.sync, compile, chunk.run, peer.fetch)", i, r.Op)
		}
		r.Kind = canonicalKind(r.Kind)
		if !validKinds[r.Kind] {
			return nil, fmt.Errorf("faults: rule %d: unknown kind %q (valid: EIO, ENOSPC, timeout, corrupt, slow)", i, r.Kind)
		}
		if r.Probability < 0 || r.Probability > 1 {
			return nil, fmt.Errorf("faults: rule %d: probability %v out of (0, 1]", i, r.Probability)
		}
		if r.Probability == 0 {
			r.Probability = 1
		}
		if r.DelayMs < 0 || r.DelayMs > MaxDelayMs {
			return nil, fmt.Errorf("faults: rule %d: delay_ms %d out of [0, %d]", i, r.DelayMs, MaxDelayMs)
		}
		if r.Kind == KindSlow && r.DelayMs == 0 {
			r.DelayMs = 10
		}
		remaining := int64(-1)
		if r.Count > 0 {
			remaining = r.Count
		}
		in.rules = append(in.rules, &rule{Rule: r, remaining: remaining})
	}
	return in, nil
}

// Parse decodes a JSON spec strictly and compiles it.
func Parse(data []byte) (*Injector, error) {
	var spec Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("faults: decode spec: %w", err)
	}
	if dec.More() {
		return nil, errors.New("faults: decode spec: trailing data after JSON value")
	}
	return New(spec)
}

// Load resolves arg as an inline JSON spec (leading '{') or a file
// path — the shared loader behind both CLIs' -fault-spec flag.
func Load(arg string) (*Injector, error) {
	trimmed := strings.TrimSpace(arg)
	if strings.HasPrefix(trimmed, "{") {
		return Parse([]byte(trimmed))
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("faults: read spec %s: %w", arg, err)
	}
	return Parse(data)
}

// Fire evaluates op against the rule set: the first matching error-kind
// rule that fires returns its InjectedError; slow rules stall inline
// and keep scanning. A nil receiver never fires. Budget is consumed per
// fire, so exhausted rules fall silent.
func (in *Injector) Fire(op Op) error {
	stall, err := in.eval(op)
	if stall > 0 {
		time.Sleep(stall)
	}
	return err
}

// eval is Fire without the stall: it consumes budget for every rule
// that fires on op and returns their summed delay with the error.
func (in *Injector) eval(op Op) (stall time.Duration, ferr error) {
	if in == nil {
		return 0, nil
	}
	in.mu.Lock()
	for _, r := range in.rules {
		if r.Op != op || r.remaining == 0 {
			continue
		}
		if r.Probability < 1 && in.rng.Float64() >= r.Probability {
			continue
		}
		if r.remaining > 0 {
			r.remaining--
		}
		r.fired++
		in.fired++
		if r.Kind == KindSlow {
			stall += time.Duration(r.DelayMs) * time.Millisecond
			continue
		}
		ferr = &InjectedError{Op: op, Kind: r.Kind}
		break
	}
	in.mu.Unlock()
	return stall, ferr
}

// RuleStats is one rule's live counters in Stats.
type RuleStats struct {
	Op          Op      `json:"op"`
	Kind        Kind    `json:"kind"`
	Probability float64 `json:"probability"`
	Fired       int64   `json:"fired"`
	// Remaining is the unfired budget; -1 = unlimited.
	Remaining int64 `json:"remaining"`
}

// Stats is the injector's /v1/stats wire form.
type Stats struct {
	Seed  int64       `json:"seed"`
	Fired int64       `json:"fired"`
	Rules []RuleStats `json:"rules"`
}

// Stats snapshots the per-rule fire counters; nil on a nil receiver.
func (in *Injector) Stats() *Stats {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := &Stats{Seed: in.seed, Fired: in.fired, Rules: make([]RuleStats, len(in.rules))}
	for i, r := range in.rules {
		st.Rules[i] = RuleStats{
			Op: r.Op, Kind: r.Kind, Probability: r.Probability,
			Fired: r.fired, Remaining: r.remaining,
		}
	}
	return st
}
