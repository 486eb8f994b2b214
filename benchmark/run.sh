#!/bin/sh
# Builds the benchmark from source in this checkout and runs it. Run from
# the repository root; every argument goes to `afex_bench.exe run`, e.g.
#   sh benchmark/run.sh --workload mysql-campaign --seed 1 --seconds 15 --trace 0
set -e
exec dune exec --root . --cache=disabled --display=quiet -- \
  ./benchmark/afex_bench.exe run "$@"
