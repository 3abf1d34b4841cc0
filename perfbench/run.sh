#!/usr/bin/env bash
# Builds perfbench from this checkout and runs one workload.
#
# From the repository root:
#   bash perfbench/run.sh --workload warm-v2 --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --all --seed 1 --seconds 20
#
# --all runs every workload untraced and traced and prints every metric.
# The build cache, the binary and each run's WAL files live under
# .bench_build/ in the current directory; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)

BENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT

if [ "${1:-}" = "--all" ]; then
	shift
	for w in warm-v2 history-v2 durable-rw warm-pg; do
		for t in 0 1; do
			"$build/perfbench" --dir "$build/tmp" --workload "$w" --trace "$t" "$@"
		done
	done
	exit 0
fi
exec "$build/perfbench" --dir "$build/tmp" "$@"
