#!/usr/bin/env bash
# Builds the benchmark harness, the dabenchd daemon and the set-up probe
# from the tree under test, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every file it writes (binaries, the
# Go build cache, data directories, traces) stays under .bench_build/
# in the current directory. Build output goes to stderr, so the last
# line of stdout is the harness's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/setupprobe" ./setupprobe &&
	go build -o "$out/bin/dabenchd" dabench/cmd/dabenchd) >&2

exec "$out/bin/perfbench" -dabenchd "$out/bin/dabenchd" -setup-probe "$out/bin/setupprobe" -workdir "$out" "$@"
