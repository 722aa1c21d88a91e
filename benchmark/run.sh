#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it with
# the given arguments. This is BENCHMARK.json's command: the driver runs it
# from the root of a checkout as
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the Go toolchain writes (build cache, telemetry, the binary)
# stays under .bench_build/ in the checkout. Outside a checkout of this
# repository (no go.mod, no nbr package) the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/config/go/telemetry" "$out/tmp"
# With telemetry in its default "local" mode the go command forks a detached
# child (reparented to init) that outlives this script; the mode file is the
# only switch for it (GOTELEMETRY is read-only in the environment).
echo off > "$out/config/go/telemetry/mode"
env GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
    GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off \
    go build -o "$out/nbr-benchmark" ./benchmark
exec "$out/nbr-benchmark" "$@"
