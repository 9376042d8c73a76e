#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it from the
# checkout root, passing every argument through:
#
#   bash bench/run.sh --workload cold_1k --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays in .bench_build/ at the root: the
# Go build cache and temporary files, the binary and the service
# workload's store.  The build never reaches for the network.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$out/scaldbench" .
cd "$root"
exec "$out/scaldbench" -tmp "$out/tmp" "$@"
