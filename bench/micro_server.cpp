// Micro-benchmarks of the *threaded* runtime: end-to-end latency of the
// three fundamental paths a query can take — cold (all disk), page-space
// warm (disk cached, recompute), and data-store hit (pure projection).
//
// `--overhead-guard` runs the tracing-overhead gate instead of the google
// benchmarks: it pins the cost of compiled-in-but-disabled lifecycle
// tracing (every instrumentation site degenerates to one pointer test or
// one relaxed load) to <= 2% of DS-hit throughput. scripts/check.sh and CI
// run it alongside the `trace` test label.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string_view>
#include <vector>

#include "server/query_server.hpp"
#include "storage/synthetic_source.hpp"
#include "trace/trace.hpp"
#include "vm/vm_executor.hpp"

namespace {

using namespace mqs;

struct Rig {
  vm::VMSemantics semantics;
  std::unique_ptr<storage::SyntheticSlideSource> slide;
  std::unique_ptr<vm::VMExecutor> executor;
  std::unique_ptr<server::QueryServer> server;

  explicit Rig(bool cachingEnabled, std::uint64_t psBytes = 256ULL << 20,
               std::shared_ptr<trace::Tracer> traceSink = nullptr) {
    const auto id = semantics.addDataset(index::ChunkLayout(4096, 4096, 146));
    slide = std::make_unique<storage::SyntheticSlideSource>(
        semantics.layout(id), 7);
    executor = std::make_unique<vm::VMExecutor>(&semantics);
    server::ServerConfig cfg;
    cfg.threads = 2;
    cfg.policy = "CF";
    cfg.dataStoreEnabled = cachingEnabled;
    cfg.dsBytes = 256ULL << 20;
    cfg.psBytes = psBytes;
    cfg.traceSink = std::move(traceSink);
    server = std::make_unique<server::QueryServer>(&semantics, executor.get(),
                                                   cfg);
    server->attach(id, slide.get());
  }
};

vm::VMPredicate probe(std::int64_t x) {
  return vm::VMPredicate(0, Rect::ofSize(x, 0, 512, 512), 4,
                         vm::VMOp::Average);
}

// Each query runs on a server worker while the benchmark thread waits on
// its future, so timing (and the bytes/s derived from it) uses wall time:
// the calling thread's CPU time would leave the query's work out.
void BM_ServerDataStoreHit(benchmark::State& state) {
  Rig rig(true);
  (void)rig.server->execute(probe(0).clone(), 0);  // prime the DS
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.server->execute(probe(0).clone(), 0));
  }
  state.SetBytesProcessed(state.iterations() * 128 * 128 * 3);
}
BENCHMARK(BM_ServerDataStoreHit)->UseRealTime();

void BM_ServerPageSpaceWarm(benchmark::State& state) {
  Rig rig(false);  // no DS: recompute every time, pages stay cached
  (void)rig.server->execute(probe(0).clone(), 0);  // prime the PS
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.server->execute(probe(0).clone(), 0));
  }
  state.SetBytesProcessed(state.iterations() * 2048 * 2048 * 3);
}
BENCHMARK(BM_ServerPageSpaceWarm)->UseRealTime();

void BM_ServerColdPath(benchmark::State& state) {
  // No result cache, one-page page space: every execute takes the full
  // index + source-read + compute path.
  Rig rig(false, /*psBytes=*/1);
  std::int64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.server->execute(probe(x).clone(), 0));
    x = (x + 512) % 2048;
  }
  state.SetBytesProcessed(state.iterations() * 2048 * 2048 * 3);
}
BENCHMARK(BM_ServerColdPath)->UseRealTime();

// --- tracing-overhead guard -------------------------------------------------

/// Seconds to run `queries` DS-hit executions against `rig`.
double timedRun(Rig& rig, int queries) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < queries; ++i) {
    benchmark::DoNotOptimize(rig.server->execute(probe(0).clone(), 0));
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One interleaved A/B measurement; returns the relative overhead of the
/// attached-but-disabled tracer, estimated from each rig's *fastest* round
/// (the min is the noise-free floor — a systematic per-event cost shifts
/// the floor itself, while scheduler/thermal spikes only add to it).
double measureOverhead(Rig& base, Rig& traced, int rounds,
                       int queriesPerRound) {
  std::vector<double> baseTimes, tracedTimes;
  for (int r = 0; r < rounds; ++r) {
    baseTimes.push_back(timedRun(base, queriesPerRound));
    tracedTimes.push_back(timedRun(traced, queriesPerRound));
  }
  const double baseMin = *std::min_element(baseTimes.begin(), baseTimes.end());
  const double tracedMin =
      *std::min_element(tracedTimes.begin(), tracedTimes.end());
  return tracedMin / baseMin - 1.0;
}

int runOverheadGuard() {
  constexpr int kRounds = 9;
  constexpr int kQueriesPerRound = 600;
  constexpr double kMaxOverhead = 0.02;
  constexpr int kAttempts = 3;

  // Attached-but-*disabled* sink: every span/counter site pays its guarded
  // fast path and nothing is ever buffered.
  auto sink = std::make_shared<trace::Tracer>();
  sink->setEnabled(false);

  Rig base(true);
  Rig traced(true, 256ULL << 20, sink);
  (void)base.server->execute(probe(0).clone(), 0);    // prime the DS
  (void)traced.server->execute(probe(0).clone(), 0);  // prime the DS
  (void)timedRun(base, kQueriesPerRound);             // warm both rigs
  (void)timedRun(traced, kQueriesPerRound);

  // A real regression (a systematic cost at the disabled sites) fails every
  // attempt; a noise spike on a shared machine fails at most one.
  bool pass = false;
  for (int attempt = 1; attempt <= kAttempts && !pass; ++attempt) {
    const double overhead =
        measureOverhead(base, traced, kRounds, kQueriesPerRound);
    pass = overhead <= kMaxOverhead;
    std::printf(
        "tracing-overhead guard (attempt %d/%d): disabled-tracing overhead "
        "%+.2f%% (limit %.0f%%)\n",
        attempt, kAttempts, overhead * 100.0, kMaxOverhead * 100.0);
  }
  if (sink->eventCount() != 0) {
    std::printf("FAIL: disabled tracer buffered %llu events\n",
                static_cast<unsigned long long>(sink->eventCount()));
    return 1;
  }
  if (!pass) {
    std::printf("FAIL: disabled-tracing overhead above limit\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--overhead-guard") {
      return runOverheadGuard();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
