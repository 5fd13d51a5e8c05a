#!/bin/sh
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#	bash bench/run.sh --workload embed-skip --seed 1 --seconds 20 --trace 0
#
# Every build output, the Go build cache, the go command's temporary files
# and its telemetry counters (kept under the user config directory) stay
# under .bench_build/ in the repository root. Without the repository's own
# sources (../go.mod) the build fails and the script exits non-zero.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/l1hhbench" .
exec "$out/l1hhbench" "$@"
