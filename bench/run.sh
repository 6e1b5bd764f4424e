#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root.
#
#   bench/run.sh                      every workload, untraced then traced,
#                                     every metric by name with its unit;
#                                     exits non-zero on a wrong answer
#   bench/run.sh --workload live-trace --seed 1 --seconds 8 --trace 0
#                                     one run; the result is the last line
#   bench/run.sh -aa 5                two sets of 5 runs per workload
#
# Everything the build writes stays under bench/out, which git ignores.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
export GOCACHE="$here/out/gocache" GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOENV=off
export XDG_CONFIG_HOME="$here/out/config" # where the go command keeps its own counters
(cd "$here" && go build -o out/ptbench ./cmd/ptbench)
cd "$here/.."
if [ $# -eq 0 ]; then
	set -- -all
fi
exec "$here/out/ptbench" "$@"
