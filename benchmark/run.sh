#!/bin/bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given. The build cache and the binary live under .bench_build in the
# checkout root, so nothing is read or written outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the benchmark is built from the module it measures" >&2
	exit 1
fi
build="$PWD/.bench_build"
# XDG_CONFIG_HOME keeps the go command's own telemetry files in there too,
# and mode "off" keeps it from forking its telemetry sidecar, a detached
# process that would outlive this script.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
