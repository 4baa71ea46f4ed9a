// Command setupprobe is regen-cold's set-up target. It links only the
// dabench library facade, initialises the surface the workload uses,
// prints "ready" and exits; the harness times it from exec to that
// line, which is everything a fresh process does before its first op.
package main

import (
	"fmt"
	"os"

	dabench "dabench"
)

func main() {
	ids := dabench.ExperimentIDs()
	lib := dabench.ScenarioLibrary()
	dabench.ResetExperimentCaches()
	if len(ids) == 0 || len(lib) == 0 || dabench.SweepWorkers() < 1 {
		fmt.Fprintln(os.Stderr, "setupprobe: library surface is empty")
		os.Exit(1)
	}
	fmt.Println("ready")
}
