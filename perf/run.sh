#!/usr/bin/env bash
# The benchmark's one entry point.
#
#   bash perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run, as BENCHMARK.json's command makes it: --trace 0 prints the
#       end-to-end metrics (perf), --trace 1 the per-layer ones (perf-layers)
#   bash perf/run.sh
#       the whole suite at seed 1, then the traced run of every workload,
#       then the total wall time
#   bash perf/run.sh run|diff|list ...
#       passed to the perf binary
#
# Builds offline into CARGO_TARGET_DIR; when that is unset and the root
# target/ exists, into the root target/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ -z "${CARGO_TARGET_DIR:-}" ] && [ -d "$here/../target" ]; then
  export CARGO_TARGET_DIR="$here/../target"
fi
export PERF_OUT_DIR="${PERF_OUT_DIR:-$here/out}"

run_bin() {
  cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$1" -- "${@:2}"
}

if [ "$#" -gt 0 ]; then
  bin=perf
  prev=
  for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then bin=perf-layers; fi
    prev="$arg"
  done
  run_bin "$bin" "$@"
  exit
fi

start=$SECONDS
run_bin perf run --all --seed 1
for workload in $(run_bin perf list | cut -d' ' -f1); do
  run_bin perf-layers trace --workload "$workload" --seed 1
done
echo "total wall time: $((SECONDS - start)) s"
