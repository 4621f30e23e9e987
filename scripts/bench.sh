#!/usr/bin/env bash
# Runs the repo's performance benchmarks.
#
#   scripts/bench.sh               full run of the `mtp bench` wall-clock
#                                  suite, writing bench-results.json in
#                                  the repo root
#   scripts/bench.sh --quick       CI smoke profile: `mtp bench --quick`
#   scripts/bench.sh --json FILE   override the JSON output path
#
# The `mtp bench` suite includes the multi-request batching entries
# (sim/8chip_ar_8blk_b8_* and sweep/deep_grid_batch4_cold_serial), so
# the batch axis is covered by every run of this script — the batched
# deep sweep is expected to land within ~2x of the single-request
# sweep/deep_grid_cold_serial (request-level periodicity, DESIGN.md §10).
#
# The committed BENCH_<pr>.json trajectory files are produced from these
# numbers — see the README's "Benchmarks" section for the format and
# DESIGN.md §8 for the methodology.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=""
json_out="bench-results.json"
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) quick="--quick"; shift ;;
    --json) json_out="$2"; shift 2 ;;
    *) echo "usage: scripts/bench.sh [--quick] [--json FILE]" >&2; exit 2 ;;
  esac
done

# Keep freed heap in the process between iterations, as perfbench/run.py
# does: glibc's heap trimming otherwise swings one-shot simulator entries
# by 20-40%. Values the caller already set win.
export MALLOC_MMAP_THRESHOLD_="${MALLOC_MMAP_THRESHOLD_:-268435456}"
export MALLOC_TRIM_THRESHOLD_="${MALLOC_TRIM_THRESHOLD_:-268435456}"
export MALLOC_TOP_PAD_="${MALLOC_TOP_PAD_:-67108864}"

echo "== mtp bench $quick =="
cargo run --release --bin mtp -- bench $quick --json "$json_out"
echo "wrote $json_out"
