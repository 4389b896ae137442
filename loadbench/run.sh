#!/usr/bin/env bash
# Builds the load benchmark from the checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash loadbench/run.sh --workload warm-hits --seed 1 --seconds 10 --trace 0
#
# Every build output stays under .bench_build/ in the checkout: the Go
# build cache, temporary files, the toolchain's telemetry counters (it
# writes them under the user config directory) and the binary. The benchmark module
# builds the repository module through a replace directive, so outside a
# full checkout the build fails and nothing is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/loadbench"
mkdir -p "$out/cache" "$out/tmp" "$out/modcache" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local \
	GOPROXY=off GOENV=off GOWORK=off
go -C "$root/loadbench" build -o "$out/loadbench" .
exec "$out/loadbench" "$@"
