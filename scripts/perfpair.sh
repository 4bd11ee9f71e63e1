#!/usr/bin/env bash
# Compares two checkouts on one workload of the repository benchmark
# (perfbench/run.sh): PAIRS pairs of runs, one on PARENT and one on this
# checkout, alternating which side runs first. Pair i runs both sides at
# seed FIRST_SEED+i, the parent first at odd seeds, so consecutive calls
# keep alternating. Run it from the root of this checkout:
#
#   bash scripts/perfpair.sh PARENT WORKLOAD PAIRS [FIRST_SEED] [run.sh args...]
#   bash scripts/perfpair.sh ../parent whatif-cold 10 11 --seconds 25 --trace 0
#
# or through `make perf-pair PARENT=../parent WORKLOAD=whatif-cold PAIRS=10`.
#
# Every run is in the foreground under `timeout -k`. Each run's report goes
# to .bench_build/perfpair/<side>-<workload>-<seed>.txt; its final JSON
# line is appended, tagged with side and seed, to
# .bench_build/perfpair/runs.jsonl, and a summary line per run is printed.
#
# However the script ends, it stops every cfserve and perfbench built under
# either checkout's .bench_build (the benchmark's server would otherwise
# outlive a killed benchmark), and it exits non-zero if any cfserve or
# perfbench process is still running afterwards.
set -euo pipefail

if [ $# -lt 3 ] || [ -z "$1" ]; then
	sed -n '2,11p' "$0" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
workload=$2
pairs=$3
seed=${4:-1}
shift $(($# < 4 ? $# : 4))
here=$(pwd)
[ -f "$here/perfbench/run.sh" ] || { echo "perfpair: run from the repository root" >&2; exit 2; }
[ -f "$parent/perfbench/run.sh" ] || { echo "perfpair: $parent has no perfbench/run.sh" >&2; exit 2; }

# Per run: the build, the first run's exact-CF oracle and three set-ups
# come before the measured seconds; 15 minutes bounds them all.
limit=900
out="$here/.bench_build/perfpair"
mkdir -p "$out"

# stop_benchmarks ends every process whose command line starts with a
# binary under either checkout's .bench_build: TERM, then KILL.
stop_benchmarks() {
	local dir pattern
	for sig in TERM KILL; do
		for dir in "$here" "$parent"; do
			pattern="^$(printf '%s' "$dir/.bench_build/" | sed 's/[][\.*^$+?(){}|]/\\&/g')(cfserve|perfbench)( |$)"
			pkill "-$sig" -f "$pattern" 2>/dev/null || true
		done
		if [ "$sig" = TERM ]; then sleep 1; fi
	done
}

finish() {
	local status=$?
	trap - EXIT INT TERM HUP
	stop_benchmarks
	if pgrep -x cfserve >/dev/null || pgrep -x perfbench >/dev/null; then
		echo "perfpair: a cfserve or perfbench process is still running:" >&2
		pgrep -a -x cfserve >&2 || true
		pgrep -a -x perfbench >&2 || true
		status=1
	fi
	exit "$status"
}
trap finish EXIT
trap 'exit 130' INT
trap 'exit 143' TERM
trap 'exit 129' HUP

# run_side runs one side's benchmark at one seed and records its JSON line.
run_side() {
	local side=$1 dir=$2 s=$3
	shift 3
	local report="$out/$side-$workload-$s.txt"
	echo "perfpair: $side seed $s ($dir)" >&2
	(cd "$dir" && timeout -k 10 "$limit" bash perfbench/run.sh --workload "$workload" --seed "$s" "$@") >"$report"
	local json
	json=$(tail -n 1 "$report")
	printf '{"side":"%s","workload":"%s","seed":%d,"result":%s}\n' "$side" "$workload" "$s" "$json" >>"$out/runs.jsonl"
	printf '%-7s seed %-4d %s\n' "$side" "$s" \
		"$(printf '%s' "$json" | grep -o '"\(correct\|failed\)":[a-z0-9]*\|"server_cpu_ms_per_op":{"value":[0-9.]*' | tr '\n' ' ')"
}

for ((i = 0; i < pairs; i++)); do
	s=$((seed + i))
	if ((s % 2 == 1)); then
		run_side parent "$parent" "$s" "$@"
		run_side change "$here" "$s" "$@"
	else
		run_side change "$here" "$s" "$@"
		run_side parent "$parent" "$s" "$@"
	fi
done
