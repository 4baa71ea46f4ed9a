package scenario

import (
	"encoding/json"
	"testing"
)

// FuzzScenarioParse drives Parse with arbitrary documents. Parse must
// never panic, and a document it accepts must compile to axes whose
// first and last grid points pass TrainSpec.Validate; otherwise a bad
// point surfaces only in the executor, as a failed job or a 500.
//
//	go test -run '^$' -fuzz FuzzScenarioParse -fuzztime 20s ./internal/scenario
func FuzzScenarioParse(f *testing.F) {
	for _, sc := range Library() {
		doc, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	// The crasher: grid tensor_parallel values skipped the parallelism
	// bound.
	f.Add([]byte(`{"version":1,"name":"x","platforms":["rdu"],"base":{"model":"gpt2-small"},"grid":{"tensor_parallel":[1,1025]}}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		sc, err := Parse(doc)
		if err != nil {
			return
		}
		a, err := sc.compile()
		if err != nil {
			t.Fatalf("Parse accepted a document that does not compile: %v", err)
		}
		for _, i := range []int{0, a.gridN - 1} {
			if err := a.pts.Spec(i).Validate(); err != nil {
				t.Errorf("grid point %d of an accepted document is invalid: %v", i, err)
			}
		}
	})
}
