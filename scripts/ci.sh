#!/usr/bin/env bash
# CI entry point: the exact sequence .github/workflows/ci.yml runs,
# kept here so every workflow step stays one line and the whole
# pipeline is reproducible locally with `scripts/ci.sh`.
#
# Stages (each is a workflow job; `all` chains them for local runs):
#   core        tier-1 (configure + build + ctest) then the strict
#               (-Werror) preset build
#   sanitizers  ASan full suite, TSan over every concurrency-touching
#               suite (check.sh's TSAN_FILTER: reader, stream, trainer,
#               recovery, kernels, embedding store, observability,
#               serving), UBSan full suite (aborting on the first
#               report), then check.sh --smoke: every bench target and
#               every example at tiny sizes, including the bench
#               self-checks (fig8 backend parity, tiering and serve-scale
#               bitwise equality) and the traced dist-train span gate
#   lint        BENCH_*.json schema lint (validate_bench_json.py), then
#               the end-to-end benchmark's self-test
#               (recdbench/test_bench.py: every workload at a tiny size,
#               every correctness check tripped by a planted fault)
#
# Honors CMAKE_CXX_COMPILER_LAUNCHER (the workflow sets it to ccache),
# and stays plain cmake/ctest otherwise.
set -euo pipefail

cd "$(dirname "$0")/.."

stage_core() {
  ./scripts/check.sh
  ./scripts/check.sh --strict
}

stage_sanitizers() {
  ./scripts/check.sh --asan
  ./scripts/check.sh --tsan
  ./scripts/check.sh --ubsan
  ./scripts/check.sh --smoke
}

stage_lint() {
  # No arguments: lints every BENCH_*.json in the repo root and fails
  # on required reports that are missing entirely.
  python3 ./scripts/validate_bench_json.py
  python3 recdbench/test_bench.py
}

case "${1:-all}" in
  core)       stage_core ;;
  sanitizers) stage_sanitizers ;;
  lint)       stage_lint ;;
  all)
    stage_core
    stage_sanitizers
    stage_lint
    echo "ci.sh: all stages passed"
    ;;
  *)
    echo "usage: $0 [core|sanitizers|lint|all]" >&2
    exit 2
    ;;
esac
