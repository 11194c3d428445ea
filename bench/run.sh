#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash bench/run.sh --workload steady-db2 --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (compiler cache, temporary files, Go's
# per-user state, the binary) stays under .bench_build/ in the current
# directory; the run itself writes only there too.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go" GOTOOLCHAIN=local
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
