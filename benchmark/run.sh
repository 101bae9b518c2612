#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags,
# e.g. `bash benchmark/run.sh -seed 1` or
# `bash benchmark/run.sh --workload serve-check --seed 3 --seconds 20 --trace 0`.
#
# Every build product, cache and temporary file stays under .bench_build at
# the repository root, so a run writes nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off

go -C "$root/benchmark" build -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" -root "$root" "$@"
