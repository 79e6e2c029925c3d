#!/usr/bin/env bash
# Entry point for the regression driver: builds the benchmark from
# source inside the checkout and runs it. Everything Go writes (build
# cache, binary) stays under .bench_build at the checkout root.
#
#   bash bench/run.sh --workload tpcb-flash --seed 1 --seconds 12 --trace 0
#
# Without --workload it runs the whole suite (see bench/README.md).
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build_dir="$(dirname "$bench_dir")/.bench_build"
mkdir -p "$build_dir"

cd "$bench_dir"
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in the
# checkout too.
GOCACHE="$build_dir/gocache" GOPATH="$build_dir/gopath" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$build_dir/config" go build -o "$build_dir/ipa-bench" .
exec "$build_dir/ipa-bench" "$@"
