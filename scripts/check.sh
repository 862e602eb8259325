#!/usr/bin/env bash
# Tier-1 verify: the exact command sequence from ROADMAP.md, run by CI
# and humans alike (documented in README.md). Fails fast with a
# nonzero exit on the first failing phase — under every flag — and
# prints a phase summary table on the way out.
#
# `check.sh --tsan` instead builds the `tsan` preset (ThreadSanitizer,
# see CMakePresets.json) and runs the concurrency-touching suites —
# ThreadPool/Channel/Barrier, ReaderPool, the pipeline round trip, the
# streaming pipeline, the executed distributed trainer, fault injection
# and checkpoint recovery, the SIMD kernels, the tiered embedding store,
# observability, and single- and multi-model serving — under the race
# detector, then repeats the collective, distributed-trainer and barrier
# tests 20 times (ctest --repeat until-fail:20) as a flake gate.
#
# `check.sh --asan` builds the `asan` preset (AddressSanitizer) and runs
# the *full* test suite under the memory-error detector.
#
# `check.sh --ubsan` builds the `ubsan` preset (UndefinedBehaviorSanitizer
# with -fno-sanitize-recover, so the first report fails its test) and
# runs the full test suite.
#
# `check.sh --smoke` builds every bench_* target and runs each with a
# tiny workload (RECD_SMOKE=1, see bench::SmokeOr; Google-Benchmark
# targets get a short --benchmark_min_time instead), then runs every
# example_* program, so bench and example bit-rot is caught by
# tier-1-adjacent tooling rather than at bench time. bench_dist_train
# runs traced, and its Chrome trace must carry spans for all four
# exchanges and the train step; it runs again under RECD_OBS=1 and must
# record a nonzero comm.wait_us. Smoke numbers are meaningless as
# measurements — nothing is written to BENCH_*.json.
set -euo pipefail

cd "$(dirname "$0")/.."

PHASE_NAMES=()
PHASE_STATUS=()

print_summary() {
  [ "${#PHASE_NAMES[@]}" -eq 0 ] && return 0
  echo
  echo "== check.sh phase summary =="
  printf '%-28s %s\n' "phase" "status"
  printf '%s\n' "------------------------------------"
  local i
  for i in "${!PHASE_NAMES[@]}"; do
    printf '%-28s %s\n' "${PHASE_NAMES[$i]}" "${PHASE_STATUS[$i]}"
  done
}
trap print_summary EXIT

run_phase() {
  local name=$1
  shift
  PHASE_NAMES+=("$name")
  PHASE_STATUS+=("RUNNING")
  echo "== phase: $name =="
  if "$@"; then
    PHASE_STATUS[${#PHASE_STATUS[@]}-1]="ok"
  else
    local rc=$?
    PHASE_STATUS[${#PHASE_STATUS[@]}-1]="FAIL ($rc)"
    echo "check.sh: phase '$name' failed (exit $rc)" >&2
    exit "$rc"
  fi
}

# The dist-train smoke, traced: the trace must load and carry a span for
# every exchange and for the train step.
smoke_dist_train_traced() {
  local trace rc=0
  trace=$(mktemp /tmp/recd_smoke_trace.XXXXXX.json)
  "$1" --trace "$trace" && python3 - "$trace" <<'EOF' || rc=$?
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
  return "$rc"
}

# The dist-train smoke under RECD_OBS=1: the bench must honour the
# variable, so its obs_metrics carry a nonzero comm.wait_us (exchange
# wait time is recorded only while obs is on).
smoke_dist_train_obs() {
  local json rc=0
  json=$(mktemp /tmp/recd_smoke_obs.XXXXXX.json)
  RECD_OBS=1 "$1" --json "$json" && python3 - "$json" <<'EOF' || rc=$?
import json, sys
series = json.load(open(sys.argv[1]))["obs_metrics"]["series"]
wait = sum(s["value"] for s in series if s["name"] == "comm.wait_us")
assert wait > 0, "RECD_OBS=1 recorded no comm.wait_us"
print(f"obs ok: comm.wait_us total {wait}")
EOF
  rm -f "$json"
  return "$rc"
}

TSAN_FILTER='ThreadPool|Channel|Barrier|Collective|Distributed|EmbeddingShard|IkjtSlice|ReaderPool|PipelineRoundTrip|Scribe|Storage|ColumnFile|Stream|WindowedEtl|TrafficSource|Serve|Batcher|QueryGenerator|Checkpoint|Fault|Kernel|Embstore|Obs|Checksum|DeadPeer|Straggler|MultiModel|Scheduler|ModelServer'

case "${1:-}" in
  --tsan)
    run_phase "configure (tsan)" cmake --preset tsan
    run_phase "build (tsan)" cmake --build build-tsan -j
    run_phase "ctest (tsan filter)" ctest --test-dir build-tsan \
      --output-on-failure -j 2 -R "$TSAN_FILTER"
    # Flake gate for the collectives: a race that shows once in twenty
    # runs still fails the stage.
    run_phase "ctest (tsan collectives x20)" ctest --test-dir build-tsan \
      --output-on-failure -j 2 -R 'Collective|Distributed|Barrier' \
      --repeat until-fail:20
    ;;
  --asan)
    run_phase "configure (asan)" cmake --preset asan
    run_phase "build (asan)" cmake --build build-asan -j
    run_phase "ctest (asan, full)" ctest --test-dir build-asan \
      --output-on-failure -j 2
    ;;
  --ubsan)
    run_phase "configure (ubsan)" cmake --preset ubsan
    run_phase "build (ubsan)" cmake --build build-ubsan -j
    run_phase "ctest (ubsan, full)" ctest --test-dir build-ubsan \
      --output-on-failure -j 2
    ;;
  --smoke)
    run_phase "configure" cmake -B build -S .
    run_phase "build" cmake --build build -j
    export RECD_SMOKE=1
    smoke_count=0
    for bench in build/bench_*; do
      [ -x "$bench" ] || continue
      smoke_count=$((smoke_count + 1))
      case "$bench" in
        */bench_micro_*)
          run_phase "smoke: ${bench#build/}" \
            "$bench" --benchmark_min_time=0.02 ;;
        */bench_dist_train)
          run_phase "smoke: ${bench#build/} (traced)" \
            smoke_dist_train_traced "$bench"
          run_phase "smoke: ${bench#build/} (RECD_OBS=1)" \
            smoke_dist_train_obs "$bench" ;;
        *)
          run_phase "smoke: ${bench#build/}" "$bench" ;;
      esac
    done
    if [ "$smoke_count" -eq 0 ]; then
      echo "check.sh: no bench_* binaries in build/ — smoke ran nothing" \
        "(RECD_BUILD_BENCH off?)" >&2
      exit 1
    fi
    example_count=0
    for example in build/example_*; do
      [ -x "$example" ] || continue
      example_count=$((example_count + 1))
      run_phase "smoke: ${example#build/}" "$example"
    done
    echo "smoke: all $smoke_count bench targets and $example_count" \
      "examples ran clean"
    ;;
  --strict)
    run_phase "configure (strict)" cmake --preset strict
    run_phase "build (strict -Werror)" cmake --build build-strict -j
    ;;
  "")
    run_phase "configure" cmake -B build -S .
    run_phase "build" cmake --build build -j
    run_phase "ctest (tier-1)" ctest --test-dir build \
      --output-on-failure -j
    ;;
  *)
    echo "usage: $0 [--tsan|--asan|--ubsan|--smoke|--strict]" >&2
    exit 2
    ;;
esac
