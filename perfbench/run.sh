#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the root of an aomplib checkout:
#
#   bash perfbench/run.sh --workload jgf-sync --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# files) stays under .bench_build/perfbench in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/aomplib.go" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an aomplib checkout (go.mod, aomplib.go and perfbench/ not found in $root)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
