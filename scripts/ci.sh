#!/usr/bin/env bash
# CI entry point: the exact sequence .github/workflows/ci.yml runs,
# kept here so every workflow step stays one line and the whole
# pipeline is reproducible locally with `scripts/ci.sh`.
#
# Stages (each is a workflow job; `all` chains them for local runs):
#   core        tier-1 (configure + build + ctest) then the strict
#               (-Werror) preset build
#   sanitizers  ASan full suite, TSan concurrency suites (including the
#               distributed-trainer suites), UBSan full suite (aborting
#               on the first report), then every bench target in smoke
#               mode
#   recovery    the fault-injection / checkpoint-recovery suites under
#               ThreadSanitizer — kill, straggler, dead-peer, and
#               restore-determinism paths are the most thread-hostile
#               code in the repo, so they get a dedicated racing pass
#   kernels     the SIMD-layer bitwise-parity suites under ASan and
#               TSan (the vectorized backend must equal the scalar
#               oracle bit for bit, with no new memory or race bugs),
#               plus a scalar-vs-vectorized fig8 smoke run
#   embstore    the tiered embedding-store suites under ASan (memory
#               errors in the gather/eviction/writeback paths) and TSan
#               (readers racing eviction), plus a tiering-bench smoke
#               run whose built-in checks assert bitwise equality with
#               the dense backend
#   obs         the observability suites under ASan and TSan (registry
#               snapshots racing hammering writers, the obs-on/off
#               bitwise-determinism rule), plus a traced dist-train
#               smoke run asserting the Chrome trace carries spans for
#               all four exchanges
#   serve_scale the multi-model serving suites under ASan (zoo routing,
#               per-model batching, scheduler) and TSan (worker lanes
#               racing the pump and shutdown), plus a serve-scale bench
#               smoke run whose built-in checks assert bitwise-equal
#               scores across every fleet/policy/load combination
#   lint        BENCH_*.json schema lint (validate_bench_json.py)
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

stage_recovery() {
  cmake --preset tsan
  cmake --build build-tsan -j
  ctest --test-dir build-tsan --output-on-failure -j 2 \
    -R 'Checkpoint|Checksum|Fault|DeadPeer|Straggler'
}

stage_kernels() {
  cmake --preset asan
  cmake --build build-asan -j
  ctest --test-dir build-asan --output-on-failure -j 2 -R 'Kernel'
  cmake --preset tsan
  cmake --build build-tsan -j
  ctest --test-dir build-tsan --output-on-failure -j 2 -R 'Kernel'
  # The measured section of fig8 runs real TrainSteps on both backends
  # and exits nonzero if their losses ever differ — a cheap end-to-end
  # bitwise check on an optimized (non-sanitizer) build.
  cmake -B build -S .
  cmake --build build -j --target bench_fig8_iteration_breakdown
  RECD_SMOKE=1 ./build/bench_fig8_iteration_breakdown
}

stage_embstore() {
  cmake --preset asan
  cmake --build build-asan -j
  ctest --test-dir build-asan --output-on-failure -j 2 -R 'Embstore'
  cmake --preset tsan
  cmake --build build-tsan -j
  ctest --test-dir build-tsan --output-on-failure -j 2 -R 'Embstore'
  # The tiering bench checks bitwise equality against dense twins and
  # sane tier counters in every mode, so its smoke run is a cheap
  # end-to-end gate on an optimized (non-sanitizer) build.
  cmake -B build -S .
  cmake --build build -j --target bench_embstore_tiering
  RECD_SMOKE=1 ./build/bench_embstore_tiering
}

stage_obs() {
  cmake --preset asan
  cmake --build build-asan -j
  ctest --test-dir build-asan --output-on-failure -j 2 -R 'Obs'
  cmake --preset tsan
  cmake --build build-tsan -j
  ctest --test-dir build-tsan --output-on-failure -j 2 -R 'Obs'
  # End-to-end trace gate on an optimized build: the dist-train bench
  # must emit a loadable Chrome trace with spans for all four exchanges
  # (the bench's own checks already assert obs-on bitwise losses).
  cmake -B build -S .
  cmake --build build -j --target bench_dist_train
  local trace
  trace=$(mktemp /tmp/recd_ci_trace.XXXXXX.json)
  RECD_SMOKE=1 ./build/bench_dist_train --trace "$trace"
  python3 - "$trace" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
names = {e["name"] for e in events}
need = {"exchange/sdd", "exchange/emb", "exchange/grad",
        "exchange/allreduce", "train/step"}
missing = need - names
assert not missing, f"trace missing spans: {missing}"
print(f"trace ok: {len(events)} events, spans {sorted(names)}")
EOF
  rm -f "$trace"
}

stage_serve_scale() {
  cmake --preset asan
  cmake --build build-asan -j
  ctest --test-dir build-asan --output-on-failure -j 2 \
    -R 'Serve|Batcher|QueryGenerator|ModelServer|MultiModel|Scheduler'
  cmake --preset tsan
  cmake --build build-tsan -j
  ctest --test-dir build-tsan --output-on-failure -j 2 \
    -R 'Serve|Batcher|QueryGenerator|ModelServer|MultiModel|Scheduler'
  # The serve-scale bench replays one trace through every fleet, policy,
  # and load point and exits nonzero if any run's scores differ bitwise
  # from the capacity probe's — a cheap end-to-end determinism gate on
  # an optimized (non-sanitizer) build.
  cmake -B build -S .
  cmake --build build -j --target bench_serve_scale
  RECD_SMOKE=1 ./build/bench_serve_scale
}

stage_lint() {
  # No arguments: lints every BENCH_*.json in the repo root and fails
  # on required reports that are missing entirely.
  python3 ./scripts/validate_bench_json.py
}

case "${1:-all}" in
  core)       stage_core ;;
  sanitizers) stage_sanitizers ;;
  recovery)   stage_recovery ;;
  kernels)    stage_kernels ;;
  embstore)   stage_embstore ;;
  obs)        stage_obs ;;
  serve_scale) stage_serve_scale ;;
  lint)       stage_lint ;;
  all)
    stage_core
    stage_sanitizers
    stage_recovery
    stage_kernels
    stage_embstore
    stage_obs
    stage_serve_scale
    stage_lint
    echo "ci.sh: all stages passed"
    ;;
  *)
    echo "usage: $0 [core|sanitizers|recovery|kernels|embstore|obs|serve_scale|lint|all]" >&2
    exit 2
    ;;
esac
