#!/usr/bin/env bash
# Tier-1 gate: static analysis (scripts/lint.sh), build + full test suite,
# then the static/fault/soak/fuzz label matrix, an ASan+UBSan pass over the
# fault-injection suites, and a ThreadSanitizer build of the
# concurrency-sensitive suites.
# Usage: scripts/check.sh [--lint] [--stress] [--no-lint] [--no-tsan]
#                         [--no-asan]
#   --lint runs ONLY the static-analysis gate (fast pre-commit loop).
#   --stress runs ONLY the interleaving stress pass: the fold, overload,
#     shard and fault labels under `ctest -j4 --repeat until-fail:50`
#     (about 11 minutes on a 4-thread host; not part of the default run).
#   MQS_SOAK_SEED / MQS_SOAK_ITERS tune the soak (see tests/integration/
#   fault_soak_test.cpp); e.g. MQS_SOAK_ITERS=50 scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

run_tsan=1
run_asan=1
run_lint=1
lint_only=0
stress_only=0
for arg in "$@"; do
  case "$arg" in
    --lint) lint_only=1 ;;
    --stress) stress_only=1 ;;
    --no-lint) run_lint=0 ;;
    --no-tsan) run_tsan=0 ;;
    --no-asan) run_asan=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

if [ "$lint_only" = 1 ]; then
  scripts/lint.sh
  exit 0
fi

# Timing-sensitive suites repeated until one run fails: a flake that shows
# once in fifty runs fails this pass instead of slipping through tier-1.
if [ "$stress_only" = 1 ]; then
  echo "== stress build =="
  cmake -B build -S . -DMQS_WERROR=ON
  cmake --build build -j "$(nproc)"
  echo "== stress: fold|overload|shard|fault labels, until-fail:50 =="
  ctest --test-dir build --output-on-failure -j 4 \
    -L 'fold|overload|shard|fault' --repeat until-fail:50 --no-tests=error
  echo "== stress OK =="
  exit 0
fi

if [ "$run_lint" = 1 ]; then
  echo "== static analysis =="
  scripts/lint.sh
else
  echo "== skipping lint =="
fi

echo "== tier-1 build =="
cmake -B build -S . -DMQS_WERROR=ON
cmake --build build -j

echo "== tier-1 tests =="
ctest --test-dir build --output-on-failure -j "$(nproc)"

# Whole-program lock-discipline analysis (DESIGN.md §15): the three
# mqs-analyze checks over every TU in the compilation database, gated on
# the committed baseline. `--target analyze` wraps the same invocation.
echo "== mqs-analyze (lock graph, GUARDED_BY coverage, blocking-under-lock) =="
build/tools/analyzer/mqs-analyze \
  -p build/compile_commands.json \
  --src-root src \
  --design DESIGN.md \
  --baseline tools/analyzer/baseline.txt \
  --config tools/analyzer/analyze.conf \
  --lockgraph-out results/lockgraph.json

# Label matrix: each suite group must be runnable on its own, so a CI
# job (or a bug hunt) can target just the static, fault, soak, fuzz,
# planner, or trace tests. `golden` reruns the simulator figure benches
# against the committed results/fig*.csv. --no-tests=error: `ctest -L <label>` exits 0
# when the label matches nothing, so a renamed/unregistered label would
# silently pass without it (scripts/lint_rules.py R6 guards the registry
# side of the same failure).
for label in static fault soak fuzz planner trace shard overload cache fold golden; do
  echo "== label: $label =="
  ctest --test-dir build --output-on-failure -j "$(nproc)" -L "$label" \
    --no-tests=error
done

FAULT_SUITES="faulty_source_test fault_retry_test failure_semantics_test \
  wire_fuzz_test fault_soak_test"
TRACE_SUITES="trace_invariants_test trace_export_test"
# The overload suites (DESIGN.md §11) run under both sanitizers: admission
# control races submit threads against workers, and the wire tests drive a
# real TCP server under flood, quota, and deadline-shed pressure. net_test
# covers the front-end's cross-thread completions and connection lifetime.
OVERLOAD_SUITES="arrival_test latency_histogram_test workload_zipf_test \
  admission_test overload_wire_test net_test"
# The lock-rank checker and the annotated queue run under both sanitizers:
# their tests exercise the Mutex/CondVar wrappers every subsystem now uses.
STATIC_SUITES="lock_order_test queue_pool_test"
# The shared-cache suites (DESIGN.md §10) run under both sanitizers too:
# their randomized multi-threaded tests are the data-race net for the Data
# Store's and the Page Space Manager's one lock each, the scheduler's
# feedback path and the metrics collector.
SHARD_SUITES="shard_consistency_test data_store_test data_store_property_test \
  scheduler_test metrics_test"
# The cost-aware caching / spill-tier suites (DESIGN.md §13): the spill
# tier owns a background writer thread and the eviction listener crosses
# the server/scheduler/store lock ranks, so both sanitizers cover them
# (and the debug builds arm the eviction-listener reentrancy death test).
CACHE_SUITES="spill_tier_test lru_differential_test \
  eviction_reentrancy_death_test swap_restore_test"
# The dynamic-folding suites (DESIGN.md §14) run under both sanitizers:
# the scan registry multicasts one payload to racing subscribers, the
# equivalence test races folding servers against the reference renderer,
# and the fault test injects device failures into shared scans.
FOLD_SUITES="scan_registry_test fold_equivalence_test fold_fault_test"
# Both engines run every plan step through one coroutine interpreter
# (query::PlanRunner); the threaded server runs its frames to completion
# on worker threads, so both sanitizers watch the engines' own suites.
ENGINE_SUITES="query_server_test plan_equivalence_test sim_server_test"

if [ "$run_asan" = 1 ]; then
  echo "== ASan+UBSan build (fault + trace + static + shard + overload + cache + fold + engine suites) =="
  cmake -B build-asan -S . -DMQS_SANITIZE=address,undefined
  # shellcheck disable=SC2086
  cmake --build build-asan -j --target $FAULT_SUITES $TRACE_SUITES \
    $STATIC_SUITES $SHARD_SUITES $OVERLOAD_SUITES $CACHE_SUITES $FOLD_SUITES \
    $ENGINE_SUITES

  echo "== ASan+UBSan tests =="
  export ASAN_OPTIONS="detect_leaks=1 halt_on_error=1"
  export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"
  for t in $FAULT_SUITES $TRACE_SUITES $STATIC_SUITES $SHARD_SUITES \
           $OVERLOAD_SUITES $CACHE_SUITES $FOLD_SUITES $ENGINE_SUITES; do
    echo "--- $t ---"
    "build-asan/tests/$t"
  done
else
  echo "== skipping ASan pass =="
fi

if [ "$run_tsan" = 1 ]; then
  echo "== TSan build (pagespace + vm + fault + trace + static + shard + overload + cache + fold + engine suites) =="
  cmake -B build-tsan -S . -DMQS_SANITIZE=thread
  # shellcheck disable=SC2086
  cmake --build build-tsan -j --target \
    page_cache_core_test page_space_manager_test prefetch_pipeline_test \
    vm_executor_test $FAULT_SUITES $TRACE_SUITES $STATIC_SUITES \
    $SHARD_SUITES $OVERLOAD_SUITES $CACHE_SUITES $FOLD_SUITES $ENGINE_SUITES

  echo "== TSan tests =="
  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
  for t in page_cache_core_test page_space_manager_test \
           prefetch_pipeline_test vm_executor_test \
           $FAULT_SUITES $TRACE_SUITES $STATIC_SUITES $SHARD_SUITES \
           $OVERLOAD_SUITES $CACHE_SUITES $FOLD_SUITES $ENGINE_SUITES; do
    echo "--- $t ---"
    "build-tsan/tests/$t"
  done
else
  echo "== skipping TSan pass =="
fi

echo "== check OK =="
