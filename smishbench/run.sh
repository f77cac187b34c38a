#!/usr/bin/env bash
# Builds smishbench from source into .bench_build/ and runs it with the
# given arguments. Run from the repository root:
#
#   bash smishbench/run.sh --workload ingest_saturate --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/smishbench" && go build -o "$build/smishbench" .) >&2
exec "$build/smishbench" --out "$build/smishbench-work" "$@"
