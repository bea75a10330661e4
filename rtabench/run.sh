#!/usr/bin/env bash
# Build the analyzer and the harness from source, then run one workload.
#
#   bash rtabench/run.sh --workload shop-large --seed 1 --seconds 30 --trace 0
#
# Run from the root of a checkout.  Build output goes to stderr; the last
# line of stdout is the result object.  Without the repository's sources
# next to this directory the build fails and so does this script.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --display quiet ./rtabench/main.exe ./bin/rta.exe 1>&2
exec ./_build/default/rtabench/main.exe --rta ./_build/default/bin/rta.exe "$@"
