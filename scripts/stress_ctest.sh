#!/usr/bin/env bash
# Repeat pass: runs the configured test suite N times at twice the core count
# (ctest -j$(2*nproc)) and stops at the first red run, so a test that fails
# one run in ten shows up as a failure instead of noise.
#
#   scripts/stress_ctest.sh N [build-dir] [extra ctest args...]
#
# build-dir defaults to build/. Exits non-zero on the first failing run,
# after printing which run it was; nothing is retried.
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:?usage: scripts/stress_ctest.sh N [build-dir] [ctest args...]}"
build_dir="${2:-build}"
shift $(( $# >= 2 ? 2 : 1 ))
jobs=$(( 2 * $(nproc) ))

for run in $(seq 1 "$runs"); do
  if ! ctest --test-dir "$build_dir" --output-on-failure -j"$jobs" "$@" \
      >"$build_dir/stress_ctest_last.log" 2>&1; then
    cat "$build_dir/stress_ctest_last.log"
    echo "stress_ctest: run $run of $runs FAILED" >&2
    exit 1
  fi
  echo "stress_ctest: run $run of $runs green"
done
