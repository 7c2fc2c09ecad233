#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root.  Usage:
#   bash ctbench/run.sh --workload pool-stream --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache and traced-run span files go under
# .bench_build/ at the checkout root; nothing is written elsewhere.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/ctbench" && go build -o "$out/ctbench" .)
cd "$root"
exec "$out/ctbench" "$@"
