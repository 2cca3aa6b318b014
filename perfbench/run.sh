#!/usr/bin/env bash
# Build the benchmark from the checkout it is run in, then run one
# workload in its own process:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
command -v dune >/dev/null || eval "$(opam env)"
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
