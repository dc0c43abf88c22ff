#!/usr/bin/env bash
# Builds the served-path benchmark from source and runs it; every
# argument is passed through (see servebench/README.md).
#
# Run from the repository root:
#   bash servebench/run.sh --workload bulk-grain --seed 7 --seconds 10 --trace 0
#
# All build state (binary, Go build cache, results, traces) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config

(cd "$root/servebench" && go build -o "$build/servebench" .)
exec "$build/servebench" --out "$build/servebench-out" "$@"
