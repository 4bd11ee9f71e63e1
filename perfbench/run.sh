#!/usr/bin/env bash
# Builds cfserve and the benchmark from this checkout into .bench_build,
# then runs the benchmark with the given arguments. Run it from the root
# of the repository:
#
#   bash perfbench/run.sh --workload whatif-cold --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/cfserve" ./cmd/cfserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -build-dir "$out" "$@"
