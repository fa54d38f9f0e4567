#!/usr/bin/env bash
# Builds the benchmark against the ncq source of the current directory
# (the root of a checkout) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "run.sh: run from the root of an ncq checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
