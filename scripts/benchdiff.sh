#!/usr/bin/env bash
# Compares this checkout's micro-benchmarks with another checkout's, run
# side by side: both checkouts' test binaries are built once, then ROUNDS
# rounds each run every package's benchmarks once per side (-count 1),
# alternating which side goes first. The parent's runs are folded into a
# baseline (cmd/benchjson: median ns/op, largest allocs/op) and this
# checkout's runs are diffed against it with the same >25% gate and
# -allocs-exact pattern as `make bench-diff` against BENCH_engine.json.
# A stored baseline drifts with the shared box between recording and
# diffing; an interleaved one drifts with it. Run it from the root of this
# checkout:
#
#   bash scripts/benchdiff.sh PARENT ALLOCS_EXACT BENCHTIME PKG...
#
# or through `make bench-diff PARENT=../parent`. Binaries and raw output
# go to .bench_build/benchdiff/. The benchmarks run under the caller's
# GOMAXPROCS, the same on both sides.
set -euo pipefail

if [ $# -lt 4 ] || [ -z "$1" ]; then
	sed -n '2,17p' "$0" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
exact=$2
benchtime=$3
shift 3
pkgs=("$@")
here=$(pwd)
rounds=5
[ -f "$here/go.mod" ] || { echo "benchdiff: run from the repository root" >&2; exit 2; }
[ -f "$parent/go.mod" ] || { echo "benchdiff: $parent has no go.mod" >&2; exit 2; }
[ "$parent" != "$here" ] || { echo "benchdiff: PARENT is this checkout" >&2; exit 2; }

out="$here/.bench_build/benchdiff"
rm -rf "$out"
mkdir -p "$out/parent" "$out/change"

root_of() { if [ "$1" = parent ]; then echo "$parent"; else echo "$here"; fi; }
bin_of() { echo "$out/$1/$(printf '%s' "$2" | tr -c 'A-Za-z0-9' '_').test"; }

for side in parent change; do
	root=$(root_of "$side")
	for pkg in "${pkgs[@]}"; do
		(cd "$root" && go test -c -o "$(bin_of "$side" "$pkg")" "$pkg")
	done
done

# run_side runs every package's benchmarks once on one side, each binary
# from its package directory as `go test` would.
run_side() {
	local side=$1 root pkg
	root=$(root_of "$side")
	for pkg in "${pkgs[@]}"; do
		(cd "$root/$pkg" && "$(bin_of "$side" "$pkg")" -test.run '^$' -test.bench . -test.benchmem \
			-test.benchtime "$benchtime" -test.count 1 -test.timeout 60m) >>"$out/$side.txt"
	done
}

for i in $(seq 1 "$rounds"); do
	if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do
		echo "benchdiff: round $i/$rounds, $side" >&2
		run_side "$side"
	done
done

go run ./cmd/benchjson <"$out/parent.txt" >"$out/parent.json"
go run ./cmd/benchjson -diff "$out/parent.json" -allocs-exact "$exact" <"$out/change.txt"
