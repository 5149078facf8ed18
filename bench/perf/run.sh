#!/bin/sh
# Entry point of the benchmark: builds perf.exe from source, then runs it
# with the given arguments, e.g.
#   sh bench/perf/run.sh --workload scenario --seed 42 --seconds 15 --trace 0
# Run from the repository root.  Load comes from one process with at most
# SPECTR_JOBS=2 domains (override by setting SPECTR_JOBS).  The build
# keeps its outputs in _build and uses no shared dune cache.
set -e
export SPECTR_JOBS="${SPECTR_JOBS:-2}"
dune build --root . --cache=disabled --display=quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
