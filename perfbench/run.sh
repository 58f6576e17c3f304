#!/usr/bin/env bash
# Builds perfbench from source and runs it from the root of the checkout:
#
#   bash perfbench/run.sh --workload profile --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, the benchmark binary, the native runners the traced
# run builds, temp dirs and span files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
work="$root/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" TMPDIR="$work/tmp" \
  XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off \
  MCHPL_GOBE_CACHE="$work/gobe" MCHPL_REPO_ROOT="$root"
(cd perfbench && go build -o "$work/perfbench" .)
exec "$work/perfbench" "$@"
