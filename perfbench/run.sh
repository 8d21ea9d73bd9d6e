#!/bin/sh
# Build the benchmark from source and run it; arguments pass through:
#
#   sh perfbench/run.sh --workload range_scan --seed 1 --seconds 24 --trace 0
#
# Run from the repository root.  Fails (exit 2) before printing any
# result when the engine's sources or the build are missing.
set -eu

cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: engine sources not found next to perfbench/" >&2
  exit 2
fi
# Keep every build artefact inside the checkout.
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe >&2 || exit 2
exec ./_build/default/perfbench/main.exe "$@"
