//go:build race

package rdu

// raceEnabled reports whether the race detector is on: it randomly
// drops sync.Pool puts (fmt's printer cache among them), so allocation
// counts jitter by an allocation or two under -race.
const raceEnabled = true
