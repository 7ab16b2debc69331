#!/usr/bin/env bash
# Fuzzes one target for a while, prints how many inputs it ran, and
# fails if the target fails or ran fewer than 1 000.
#
#   scripts/fuzz_smoke.sh 10s FuzzDecodeWire ./internal/daemon/
#
# go test minimizes each new interesting input for up to 60 s by
# default, so a 10 s run that finds one early spends the rest of its
# time minimizing it: on a cold fuzz cache such runs made 9 to 311
# executions. With minimization held to 100 runs an input, the same
# runs make tens of thousands.
set -euo pipefail
fuzztime="$1" target="$2" pkg="$3"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT
go test -run '^$' -fuzz "^${target}\$" -fuzztime "$fuzztime" -fuzzminimizetime 100x "$pkg" 2>&1 | tee "$log"
execs="$(sed -n 's/.*execs: \([0-9]*\).*/\1/p' "$log" | tail -n 1)"
echo "$target: ${execs:-0} executions in $fuzztime"
if [ "${execs:-0}" -lt 1000 ]; then
	echo "$target: fewer than 1000 executions; the target barely mutated" >&2
	exit 1
fi
