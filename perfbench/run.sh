#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload vpr-live --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, binary, span files, the toolchain's local telemetry counters) stays
# under .bench_build/ in that root. The build fails, and the script exits
# non-zero without printing a result, when the hotprefetch module is not one
# directory up.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=
export CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
