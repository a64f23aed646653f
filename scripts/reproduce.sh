#!/usr/bin/env bash
# Reproduce everything: build, run the full test suite, regenerate every
# figure/table of the paper plus the ablations. Pass --full to run the
# figure benches at paper scale (minutes instead of seconds).
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE_FLAG="${1:-}"

cmake -B build -G Ninja
cmake --build build

echo "== tests =="
ctest --test-dir build --output-on-failure

echo "== figures and ablations =="
mkdir -p results
for b in build/bench/*; do
  [ -x "$b" ] || continue
  case "$(basename "$b")" in
    # google-benchmark binaries reject harness flags; run them bare.
    micro_sched|micro_substrates|micro_server)
      echo "--- $b ---"
      "$b"
      ;;
    *)
      # Each figure harness leaves a machine-readable results/BENCH_<fig>.json
      # next to its printed tables (see docs/OBSERVABILITY.md).
      echo "--- $b $SCALE_FLAG --json-dir results ---"
      "$b" $SCALE_FLAG --json-dir results
      ;;
  esac
done

echo "== tracing-overhead guard =="
build/bench/micro_server --overhead-guard

# No --json-dir: this 4-query pass would overwrite the full fig4 table in
# results/BENCH_fig4.json; it only emits the trace.
echo "== lifecycle trace (fig4, first run) =="
build/bench/fig4_response_vs_threads --threads 4 --queries 4 \
  --trace-out results/fig4.trace.json

echo "== examples (smoke) =="
build/examples/quickstart
build/examples/timeseries_app
build/examples/volume_explorer --slices 2
build/examples/replay_trace
