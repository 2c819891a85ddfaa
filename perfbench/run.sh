#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload replay-array --seed 3 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything the build and the
# run leave behind goes under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
src="$(cd "$(dirname "$0")" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
