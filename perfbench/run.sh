#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every other file the toolchain
# writes go under .bench_build/ in the current directory, so nothing
# outside the checkout is touched. Without the parent module next to
# perfbench/ the build fails and the script exits non-zero before
# printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
