#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare <old-results-dir> <new-results-dir>
#
# Everything the build and the run write goes under .bench_build/. The Go
# toolchain is used offline and never switches itself.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/perfbench/bin"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
go -C perfbench build -o "$out/perfbench/bin/perfbench" .
exec "$out/perfbench/bin/perfbench" "$@"
