#!/usr/bin/env bash
# Builds the reference benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload phy-sync --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes lands in
# .bench_build/ under the current directory: the Go build cache, the
# benchmark binary, and the traced runs' spans and CPU profiles. See
# perfbench/README.md for the workloads and metrics.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/experiments" ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/experiments here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
