#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and each run's scratch WAL
# directories stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
# Everything the benchmark needs is in the checkout: never fetch.
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

if [ -d "$root/.git" ] && command -v git >/dev/null; then
	PERFBENCH_GIT_REV="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
	export PERFBENCH_GIT_REV
fi

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
