// A4 micro-benchmarks: the substrates under the scheduler — geometry,
// R-tree, page-cache core, data-store lookup, VM operators.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "datastore/data_store.hpp"
#include "index/rtree.hpp"
#include "pagespace/page_cache_core.hpp"
#include "pagespace/page_space_manager.hpp"
#include "storage/synthetic_source.hpp"
#include "vm/vm_executor.hpp"

namespace {

using namespace mqs;

void BM_RectSubtract(benchmark::State& state) {
  Rng rng(1);
  const Rect r = Rect::ofSize(0, 0, 1000, 1000);
  for (auto _ : state) {
    const Rect hole =
        Rect::ofSize(rng.uniformInt(0, 900), rng.uniformInt(0, 900), 100, 100);
    benchmark::DoNotOptimize(r.subtract(hole));
  }
}
BENCHMARK(BM_RectSubtract);

void BM_RTreeInsertErase(benchmark::State& state) {
  Rng rng(2);
  index::RTree tree;
  std::vector<std::pair<Rect, std::uint64_t>> entries;
  std::uint64_t id = 0;
  for (auto _ : state) {
    const Rect r = Rect::ofSize(rng.uniformInt(0, 30000),
                                rng.uniformInt(0, 30000), 512, 512);
    tree.insert(r, id);
    entries.emplace_back(r, id);
    ++id;
    if (entries.size() > 512) {
      tree.erase(entries.front().first, entries.front().second);
      entries.erase(entries.begin());
    }
  }
}
BENCHMARK(BM_RTreeInsertErase);

void BM_RTreeQuery(benchmark::State& state) {
  Rng rng(3);
  index::RTree tree;
  for (std::uint64_t i = 0; i < 1024; ++i) {
    tree.insert(Rect::ofSize(rng.uniformInt(0, 30000),
                             rng.uniformInt(0, 30000), 1024, 1024),
                i);
  }
  for (auto _ : state) {
    const Rect q = Rect::ofSize(rng.uniformInt(0, 28000),
                                rng.uniformInt(0, 28000), 2048, 2048);
    std::size_t hits = 0;
    tree.queryIntersecting(q,
                           [&](const Rect&, std::uint64_t) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RTreeQuery);

void BM_PageCacheTouchInsert(benchmark::State& state) {
  pagespace::PageCacheCore cache(32ULL << 20);
  Rng rng(4);
  for (auto _ : state) {
    const storage::PageKey key{0,
                               static_cast<std::uint64_t>(rng.uniformInt(0, 2000))};
    if (!cache.touch(key)) {
      benchmark::DoNotOptimize(cache.insert(key, 64 * 1024));
    }
  }
}
BENCHMARK(BM_PageCacheTouchInsert);

void BM_DataStoreLookup(benchmark::State& state) {
  static vm::VMSemantics sem = [] {
    vm::VMSemantics s;
    (void)s.addDataset(index::ChunkLayout(30000, 30000, 146));
    return s;
  }();
  datastore::DataStore ds(1ULL << 32, &sem);
  Rng rng(5);
  auto randomPred = [&] {
    const std::uint32_t zoom = 1u << rng.uniformInt(1, 4);
    const std::int64_t side = static_cast<std::int64_t>(zoom) * 256;
    auto snap = [&](std::int64_t v) { return (v / 32) * 32; };
    return std::make_unique<vm::VMPredicate>(
        0,
        Rect::ofSize(snap(rng.uniformInt(0, 20000)),
                     snap(rng.uniformInt(0, 20000)), side, side),
        zoom, vm::VMOp::Subsample);
  };
  for (int i = 0; i < 512; ++i) {
    auto p = randomPred();
    const auto bytes = sem.qoutsize(*p);
    (void)ds.insert(std::move(p), {}, bytes);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.lookupTopK(*randomPred(), 1));
  }
}
BENCHMARK(BM_DataStoreLookup);

void BM_TrimmedMean(benchmark::State& state) {
  Rng rng(6);
  std::vector<double> xs;
  for (int i = 0; i < 4096; ++i) xs.push_back(rng.uniform01());
  for (auto _ : state) {
    benchmark::DoNotOptimize(trimmedMean95(xs));
  }
}
BENCHMARK(BM_TrimmedMean);

void BM_VMExecute(benchmark::State& state) {
  const bool average = state.range(0) == 1;
  static vm::VMSemantics sem = [] {
    vm::VMSemantics s;
    (void)s.addDataset(index::ChunkLayout(2048, 2048, 146));
    return s;
  }();
  static storage::SyntheticSlideSource slide(sem.layout(0), 1);
  static pagespace::PageSpaceManager ps(64ULL << 20);
  static bool attached = [] {
    ps.attach(0, &slide);
    return true;
  }();
  (void)attached;
  vm::VMExecutor exec(&sem);
  const vm::VMPredicate q(0, Rect::ofSize(0, 0, 1024, 1024), 4,
                          average ? vm::VMOp::Average : vm::VMOp::Subsample);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.execute(q, ps));
  }
  state.SetBytesProcessed(state.iterations() * 1024 * 1024 * 3);
}
BENCHMARK(BM_VMExecute)->Arg(0)->Arg(1);

void BM_SyntheticPixel(benchmark::State& state) {
  std::int64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::syntheticPixel(7, x, x + 1, 0));
    ++x;
  }
}
BENCHMARK(BM_SyntheticPixel);

}  // namespace
