#!/usr/bin/env bash
# Builds the benchmark and the lbserver binary from this checkout's
# sources, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload adversary --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build output, Go cache and
# scratch file stays under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/lbserver" ./cmd/lbserver
exec "$out/perfbench" -build-dir "$out" "$@"
