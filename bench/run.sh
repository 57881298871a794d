#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (a build directory
# inside the checkout, so nothing is written outside it) and runs it from
# the repository root with the arguments given:
#
#   bash bench/run.sh --workload serve_static --seed 1 --seconds 18 --trace 0
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$src")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME="$out/config"
bin="$out/toppkg-bench"
# Build unless the binary is newer than every Go source of the checkout.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	(cd "$src" && go build -buildvcs=false -o "$bin" .)
fi
cd "$root"
exec "$bin" "$@"
