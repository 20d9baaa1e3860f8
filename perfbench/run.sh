#!/bin/sh
# Build adept and the benchmark from this checkout, then run one
# benchmark workload:
#
#   sh perfbench/run.sh --workload warm-hit --seed 1 --seconds 30 --trace 0
#
# Everything stays inside the checkout: dune's shared cache is off, and
# sockets, exports and span files go to .perfbench/.
set -eu
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/adept_cli.exe ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe --adept ./_build/default/bin/adept_cli.exe --dir .perfbench "$@"
