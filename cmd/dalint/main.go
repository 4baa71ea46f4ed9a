// Command dalint is dabench's project-invariant checker: four custom
// analyzers (internal/analysis) that mechanize rules earlier changes
// established by convention — ValidAddr ahead of path handling, no
// fresh root contexts on request paths, no mixed atomic/direct access,
// no I/O under hot locks.
//
// It runs one way, as a vettool, so cmd/go plans the build and caches
// the verdicts:
//
//	go build -o bin/dalint ./cmd/dalint
//	go vet -vettool=$(pwd)/bin/dalint ./...
//
// Invoked without a vet config, it prints a usage line and exits 2.
//
// A finding is suppressed only by an inline justification comment on
// the offending line (or the line above):
//
//	//dalint:ignore <analyzer> -- <why this is sound>
package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"

	"dabench/internal/analysis"
	"dabench/internal/version"
)

func main() {
	args := os.Args[1:]
	// cmd/go's toolID handshake: `dalint -V=full` must answer
	// "<name> version <id>" where the id changes whenever the binary
	// does — the go command keys its vet result cache on it. Hashing
	// our own executable makes a rebuilt dalint invalidate stale vet
	// verdicts instead of replaying them.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			fmt.Printf("%s version %s-%s\n", filepath.Base(os.Args[0]), version.Version, selfHash())
			return
		}
	}
	// cmd/go's flag discovery: `dalint -flags` answers a JSON array of
	// analyzer flags. dalint exposes none — the suite is all-on, and
	// suppression happens in source where it can carry a justification.
	if len(args) == 1 && (args[0] == "-flags" || args[0] == "--flags") {
		fmt.Println("[]")
		return
	}
	if cfg, ok := analysis.IsVetInvocation(args); ok {
		os.Exit(analysis.RunVet(cfg, analysis.All(), os.Stderr))
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(pwd)/bin/dalint ./...")
	os.Exit(2)
}

// selfHash fingerprints the running binary for the vet cache key.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum[:8])
}
