#!/usr/bin/env bash
# Builds the layered benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload knn-http --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and scratch data all stay under
# .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
