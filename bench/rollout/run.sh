#!/usr/bin/env bash
# Builds the rollout benchmark from source in this checkout and runs it.
# Run from the repository root with main.exe's arguments, e.g.
#
#   bash bench/rollout/run.sh --workload clos_churn --seed 42 --seconds 10 --trace 0
#
# The build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: no dune-project or lib/ here; run from the root of a full checkout" >&2
  exit 2
fi

# The shared dune cache lives outside the checkout; keep the build inside it.
DUNE_CACHE=disabled dune build --root . ./bench/rollout/main.exe >&2
exec ./_build/default/bench/rollout/main.exe "$@"
