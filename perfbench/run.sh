#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#
# or every workload, untraced and traced, one process each:
#
#   bash perfbench/run.sh --workload all --seed 1 --seconds 20
#
# Run it from the repository root. The build cache, the binary and
# everything else the Go toolchain writes stay under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/home/go" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0

# A failed build (for instance outside a full checkout) exits non-zero
# before anything is printed on standard output.
go -C "$root/perfbench" build -o "$out/perfbench" . >&2

if [[ "${1:-}" == --workload && "${2:-}" == all ]]; then
	shift 2
	status=0
	for w in table1 areawire route service; do
		for t in 0 1; do
			"$out/perfbench" --workload "$w" --trace "$t" "$@" || status=1
		done
	done
	exit "$status"
fi
exec "$out/perfbench" "$@"
