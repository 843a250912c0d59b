#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1 --out a.jsonl          # all four workloads
#   bash bench/run.sh -compare a.jsonl b.jsonl
#
# Everything the build writes (binary, Go build cache, traces) stays under
# .bench_build/ in the current directory. The build fails, and the script
# exits non-zero without a result, when the repository's sources are absent.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd "$here" && go build -o "$out/hbbp-bench" .)
exec "$out/hbbp-bench" "$@"
