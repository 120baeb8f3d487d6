#!/usr/bin/env bash
# Builds the benchmark once and runs it from the repository root.
#
#   bench/run.sh                      full session: all four workloads untraced,
#                                     then traced, same seed; leaves
#                                     bench/out/{results.json,results.traced.json,spans.json}
#   bench/run.sh -seed 7 -seconds 10  the same with other settings
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one run, as the benchmark driver invokes it
#   bench/run.sh -compare A.json B.json | -write-expected
#
# Everything the build and the run write lands in bench/out/ (Go's build
# cache included), which git ignores.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/bench/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local
(cd bench && go build -o "$out/bench" .)

case " $* " in
*" -workload "* | *" --workload "* | *" -compare "* | *" -write-expected "*)
	exec "$out/bench" "$@"
	;;
esac
rm -f "$out/results.json" "$out/results.traced.json"
"$out/bench" -workload all -trace 0 -out "$out/results.json" "$@"
"$out/bench" -workload all -trace 1 -out "$out/results.traced.json" "$@"
