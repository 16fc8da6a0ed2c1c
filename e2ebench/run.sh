#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in, then runs
# it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload fig8-tcp --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (compiler cache, binary) goes under
# .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/e2ebench" ./e2ebench
exec "$out/e2ebench" "$@"
