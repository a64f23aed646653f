// A3 micro-benchmarks: cost of scheduling-graph maintenance, and the
// incremental vs full-recomputation ranking ablation the paper motivates
// ("updates to the query scheduling graph and topological sort are done in
// an incremental fashion to avoid performance degradation").
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "sched/scheduler.hpp"
#include "vm/vm_predicate.hpp"
#include "vm/vm_semantics.hpp"

namespace {

using namespace mqs;

vm::VMSemantics& semantics() {
  static vm::VMSemantics sem = [] {
    vm::VMSemantics s;
    (void)s.addDataset(index::ChunkLayout(30000, 30000, 146));
    return s;
  }();
  return sem;
}

query::PredicatePtr randomPred(Rng& rng) {
  const std::uint32_t zoom = 1u << rng.uniformInt(1, 4);
  const std::int64_t side = static_cast<std::int64_t>(zoom) * 256;
  auto snap = [&](std::int64_t v) { return (v / 32) * 32; };
  return std::make_unique<vm::VMPredicate>(
      0,
      Rect::ofSize(snap(rng.uniformInt(0, 20000)),
                   snap(rng.uniformInt(0, 20000)), side, side),
      zoom, vm::VMOp::Subsample);
}

void BM_GraphInsert(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sched::SchedulingGraph g(&semantics());
    Rng rng(42);
    state.ResumeTiming();
    for (std::size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(g.insert(randomPred(rng)));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GraphInsert)->Arg(64)->Arg(256)->Arg(1024);

void runSchedulerCycle(bool incremental, const std::string& policy,
                       benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sched::QueryScheduler s(&semantics(), sched::makePolicy(policy, 0.2),
                            incremental);
    Rng rng(42);
    std::vector<sched::NodeId> nodes;
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(s.submit(randomPred(rng)));
    }
    state.ResumeTiming();
    // Drain: dequeue, complete, occasionally swap out — the steady-state
    // event mix a busy server generates.
    std::size_t completedCount = 0;
    while (auto node = s.dequeue()) {
      s.completed(*node);
      if (++completedCount % 3 == 0) s.swappedOut(*node);
    }
    benchmark::DoNotOptimize(completedCount);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_SchedulerDrain_CF_Incremental(benchmark::State& state) {
  runSchedulerCycle(true, "CF", state);
}
void BM_SchedulerDrain_CF_FullRecompute(benchmark::State& state) {
  runSchedulerCycle(false, "CF", state);
}
void BM_SchedulerDrain_MUF_Incremental(benchmark::State& state) {
  runSchedulerCycle(true, "MUF", state);
}
void BM_SchedulerDrain_MUF_FullRecompute(benchmark::State& state) {
  runSchedulerCycle(false, "MUF", state);
}
BENCHMARK(BM_SchedulerDrain_CF_Incremental)->Arg(128)->Arg(512);
BENCHMARK(BM_SchedulerDrain_CF_FullRecompute)->Arg(128)->Arg(512);
BENCHMARK(BM_SchedulerDrain_MUF_Incremental)->Arg(128)->Arg(512);
BENCHMARK(BM_SchedulerDrain_MUF_FullRecompute)->Arg(128)->Arg(512);

void BM_ExecutingSources(benchmark::State& state) {
  sched::QueryScheduler s(&semantics(), sched::makePolicy("CF", 0.2));
  Rng rng(42);
  for (int i = 0; i < 256; ++i) (void)s.submit(randomPred(rng));
  // Start half executing so there are older executions to find.
  std::vector<sched::NodeId> executing;
  for (int i = 0; i < 128; ++i) {
    if (auto n = s.dequeue()) executing.push_back(*n);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s.executingSources(executing[i++ % executing.size()]));
  }
}
BENCHMARK(BM_ExecutingSources);

}  // namespace
