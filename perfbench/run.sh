#!/usr/bin/env bash
# Builds the pdw daemon and the benchmark from source, then runs one
# workload:
#   bash perfbench/run.sh --workload plan-batch --seed 1 --seconds 25 --trace 0
# The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./bin/main.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --pdw ./_build/default/bin/main.exe "$@"
