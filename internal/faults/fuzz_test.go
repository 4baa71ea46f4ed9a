package faults

import (
	"testing"
	"time"
)

// FuzzFaultsParse drives Parse with arbitrary specs. Parse must never
// panic, and every rule of a spec it accepts must have a known op and
// kind, a probability in (0, 1] and a stall in [0, 1 h]. Firing the
// fuzzed op and every known op must not panic either, and must stall
// no less than nothing. The stall is evaluated, not slept, so hour-long
// rules cost the fuzzer nothing.
//
//	go test -run '^$' -fuzz FuzzFaultsParse -fuzztime 20s ./internal/faults
func FuzzFaultsParse(f *testing.F) {
	for _, spec := range []string{
		`{"rules":[{"op":"chunk.run","kind":"slow","delay_ms":9300000000000}]}`,
		`{"rules":[{"op":"chunk.run","kind":"slow","delay_ms":3600000}]}`,
		`{"rules":[{"op":"chunk.run","kind":"slow","delay_ms":-1}]}`,
		`{"rules":[{"op":"chunk.run","kind":"slow","delay_ms":400}]}`,
		`{"seed":42,"rules":[{"op":"store.write","kind":"EIO","probability":0.3,"count":10,"delay_ms":0}]}`,
		`{"seed":7,"rules":[{"op":"store.read","kind":"corrupt","probability":0.5},{"op":"store.read","kind":"slow"},{"op":"journal.sync","kind":"enospc","count":2}]}`,
		`{"rules":[{"op":"peer.fetch","kind":"timeout","probability":1.5}]}`,
		`{"rules":[{"op":"disk.write","kind":"EIO"}]}`,
		`{"rules":[]}`,
	} {
		f.Add([]byte(spec), "chunk.run")
	}
	f.Fuzz(func(t *testing.T, spec []byte, op string) {
		in, err := Parse(spec)
		if err != nil {
			return
		}
		for i, r := range in.rules {
			if !validOps[r.Op] || !validKinds[r.Kind] {
				t.Errorf("rule %d: accepted op %q kind %q", i, r.Op, r.Kind)
			}
			if !(r.Probability > 0 && r.Probability <= 1) {
				t.Errorf("rule %d: accepted probability %v", i, r.Probability)
			}
			if d := time.Duration(r.DelayMs) * time.Millisecond; d < 0 || d > time.Hour {
				t.Errorf("rule %d: accepted delay_ms %d, a stall of %v", i, r.DelayMs, d)
			}
		}
		ops := []Op{Op(op)}
		for o := range validOps {
			ops = append(ops, o)
		}
		for _, o := range ops {
			if stall, _ := in.eval(o); stall < 0 {
				t.Errorf("firing %q stalls %v", o, stall)
			}
		}
	})
}
