#!/usr/bin/env bash
# Builds the loopback benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload uniform-rw --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# WAL scratch directories, span dumps) goes under .bench_build/ in the
# checkout. The build needs the repository's own packages (../go.mod); in
# a directory without them it fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
