#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it with the
# given arguments, e.g.
#   bash benchmark/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
