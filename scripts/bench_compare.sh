#!/usr/bin/env bash
# CI perf-regression guard: runs the quick `mtp bench` profile and diffs
# it against the newest committed BENCH_*.json baseline.
#
#   scripts/bench_compare.sh                  compare against the newest
#                                             BENCH_*.json, tolerance 10x
#   scripts/bench_compare.sh BENCH_4.json     explicit baseline
#   TOLERANCE=25 scripts/bench_compare.sh     override the gate
#
# The tolerance is deliberately generous: quick-profile numbers on shared
# CI runners are noisy, and the gate exists to catch order-of-magnitude
# regressions (a hot path accidentally falling off its fast path), not to
# police percent-level drift. The committed baselines are measured with
# the full profile on a quiet host, which adds its own constant factor —
# both effects stay far inside a 10x gate.
#
# Since PR 5 the suite includes batch entries (batched simulator runs
# and the batched deep sweep), so this guard also catches the batching
# subsystem falling off its request-level periodicity fast path —
# BENCH_5.json is the first baseline carrying them; against older
# baselines they are reported as "not in baseline" and skipped.
#
# Since PR 6 the suite also includes the queued link-regime entries
# (sim/8chip_ar_block_qinf and sim/8chip_ar_block_q1m), guarding the
# affine hot path against the packet-level arbitration work: the affine
# entries must not slow down, and the queued entries bound the cost of
# the queue bookkeeping itself. BENCH_6.json is the first baseline
# carrying them.
#
# Since PR 8 the suite includes backend/dtype kernel entries (scalar
# GEMM, f16, int8, fused attention) and `--check` marks every row
# explicitly — `ok (within Nx)` or `REGRESSION` — so a pass is visibly
# a judgment on each entry, not an absence of output. Kernel entries
# run at a higher best-of-N since PR 8 to tame shared-runner noise.
# BENCH_8.json is the first baseline carrying the new entries; against
# older baselines they are reported as "not in baseline" and skipped.
#
# The suite also includes the decode shapes (kernel/gemv_* and
# kernel/lm_head_*, each with its scalar-backend twin), guarding the
# row-streaming GEMV and the scratch-free transposed LM head against
# falling back onto a strided or k x n-staging path. BENCH_12.json is
# the first baseline carrying them.
#
# The suite also includes serve/study_one_system: the repository
# benchmark's serving study (six per-request-billed runs on one fresh
# 8-chip system), guarding the system-owned serving memo that lets the
# six runs share slot templates and pass makespans. BENCH_20.json is the
# first baseline carrying it; against older baselines it is reported as
# "not in baseline" and skipped.
#
# The suite also includes serialize/paper_grid: the CSV and JSON tables
# of one fixed paper-grid sweep result, reported in MB/s too, guarding
# the table writer's fmt-free number and label paths. BENCH_25.json is
# the first baseline carrying it; against older baselines it is
# reported as "not in baseline" and skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${1:-}"
if [ -z "$baseline" ]; then
  baseline=$(ls BENCH_*.json | sort -V | tail -1)
fi
tolerance="${TOLERANCE:-10}"

echo "== perf-regression guard: quick profile vs $baseline (gate ${tolerance}x) =="
cargo run --release --bin mtp -- bench --quick --compare "$baseline" --check "$tolerance"
