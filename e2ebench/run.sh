#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# given arguments, for example:
#
#   bash e2ebench/run.sh --workload grid-snn --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Everything the Go toolchain and
# the benchmark write (build cache, binary, spans of traced runs) stays
# under $CARGO_TARGET_DIR, default .bench_build. Without the repository's
# sources next to e2ebench/ the build fails and the script exits non-zero.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

go -C e2ebench build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" --spans-dir "$out/spans" "$@"
