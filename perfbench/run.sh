#!/usr/bin/env bash
# Builds codserve and the benchmark from this checkout's sources, then runs
# one workload:
#
#   bash perfbench/run.sh --workload serve-cora --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (Go build cache, binaries, per-run temp dirs). Run it
# from the checkout root; outside a full checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"

# XDG_CONFIG_HOME keeps the go command's user config and telemetry counters
# inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

# Build output goes to stderr so the last line of stdout stays the result.
go build -o "$out/bin/codserve" ./cmd/codserve 1>&2
(cd perfbench && go build -o "$out/bin/perfbench" .) 1>&2

exec "$out/bin/perfbench" -codserve "$out/bin/codserve" -workdir "$out/tmp" "$@"
