#!/usr/bin/env bash
# Builds the tracedst benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload layout-study --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 5
#   bash perfbench/run.sh --selfcheck
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the binary, the Go build cache, scratch files and span exports.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench: no tracedst module at $root (the benchmark builds the program from source)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/perfbench" "$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" "$@"
