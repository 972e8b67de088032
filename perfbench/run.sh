#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload perception_live --seed 1 --seconds 30 --trace 0
#
# The build, its cache and every output stay inside the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
# Memory the runtime hands back stays cheap to reuse (MADV_FREE), so a
# repeated set-up measures allocation and zeroing, not the host's page-fault
# cost, which on a shared machine varied twofold between runs.
GODEBUG=madvdontneed=0 exec "$build/perfbench" "$@"
