#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh -workload disk-pio -seed 1 -seconds 20 -trace 0
#
# Everything the build writes (the Go build and module caches, temporary
# files and the binary) stays under .bench_build in the current directory,
# and the Go toolchain is kept offline.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
