#!/usr/bin/env bash
# The benchmark's command in BENCHMARK.json: build the benchmark from
# source inside the checkout, then run it with the given arguments.
#
# Everything the Go toolchain writes (build cache, telemetry counters) is
# pointed into .bench_build/, so a run touches nothing outside the
# checkout. `go run ./benchmark` does the same job for a person at a
# terminal, with the toolchain's usual cache under $HOME.
#
# Go telemetry is switched off in that private config directory first:
# with a fresh config directory the go command otherwise starts a detached
# "** telemetry **" child of itself that outlives the run.
set -euo pipefail

if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod here; run from the root of the fasttts module" >&2
	exit 1
fi

build="$PWD/.bench_build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
