#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash benchmark/run.sh --workload tpch-fig7 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the span files go to the build
# directory ($CARGO_TARGET_DIR, default .bench_build), so nothing is written
# outside the checkout. Fails, printing no result, when the repository's
# sources are not beside this directory.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/iolap-bench" .)
cd "$root"
exec "$build/iolap-bench" --trace-dir "$build/trace" "$@"
