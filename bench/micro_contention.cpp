// Lock-contention microbenchmark: hot-hit throughput of the sharded Page
// Space Manager against its single-lock (shards = 1) configuration, and of
// the Data Store's one lock as a headroom figure, swept over worker-thread
// counts 1 -> 128 (DESIGN.md §10).
//
//   micro_contention [--threads 1,2,4,8,16,32,64,128] [--shards 16]
//                    [--ops 200000] [--trials 3] [--pages 256] [--blobs 256]
//                    [--json-dir DIR] [--smoke]
//
// Every data point performs a fixed total number of hot-hit operations
// (`--ops`, split evenly over the threads, so each point costs the same
// work) and reports the best of `--trials` runs: PS = read-through fetch()
// of already-resident pages, DS = noteReuse() recency touches of resident
// blobs. Both are pure lock-protected fast paths — no I/O, no eviction —
// so the sweep isolates lock acquisition cost. The second table reports
// the contended-acquisition counts from mqs::lockstats (the same counters
// the server emits as LOCK_WAIT_* trace events).
//
// --smoke runs only the 8-thread PS point, alternating single-lock and
// sharded trials (ABAB...) so host load hits both alike, and exits nonzero
// if the best sharded trial falls behind the best single-lock trial beyond
// noise; the CI matrices run it as a guardrail test.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/lock_stats.hpp"
#include "datastore/data_store.hpp"
#include "index/chunk_layout.hpp"
#include "pagespace/page_space_manager.hpp"
#include "storage/synthetic_source.hpp"
#include "vm/vm_predicate.hpp"
#include "vm/vm_semantics.hpp"

using namespace mqs;

namespace {

struct RunResult {
  double opsPerSec = 0.0;
  std::uint64_t contended = 0;  ///< blocked lock acquisitions during the run
};

std::uint64_t contendedSum(std::initializer_list<lockorder::Rank> ranks) {
  std::uint64_t total = 0;
  for (const lockorder::Rank rank : ranks) {
    total += lockstats::countsFor(rank).contended;
  }
  return total;
}

/// Run `totalOps` calls of op(threadIndex, i) split over `threads` threads,
/// all released together off a spin barrier; returns hot-op throughput and
/// the contended-acquisition delta on the subsystem's lock ranks.
template <typename Op>
RunResult hammer(int threads, std::uint64_t totalOps,
                 std::initializer_list<lockorder::Rank> ranks, Op op) {
  const std::uint64_t per =
      std::max<std::uint64_t>(1, totalOps / static_cast<std::uint64_t>(threads));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  const std::uint64_t before = contendedSum(ranks);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_relaxed);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < per; ++i) op(t, i);
    });
  }
  while (ready.load(std::memory_order_relaxed) < threads) {
    std::this_thread::yield();
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  RunResult r;
  r.opsPerSec = static_cast<double>(per) * threads / wall;
  r.contended = contendedSum(ranks) - before;
  return r;
}

/// Cheap per-thread mixer so every thread walks its own key sequence.
std::uint64_t mix(std::uint64_t t, std::uint64_t i) {
  std::uint64_t x = (t + 1) * 0x9e3779b97f4a7c15ULL + i * 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

/// Page Space hot hits: fetch() of pages that are all resident (capacity
/// far above the working set, prewarmed before the clock starts).
RunResult runPs(int threads, int shards, std::uint64_t totalOps, int pages,
                int trials) {
  const index::ChunkLayout layout(64 * pages, 64, 64);
  const storage::SyntheticSlideSource slide(layout, /*seed=*/7);
  RunResult best;
  for (int trial = 0; trial < trials; ++trial) {
    pagespace::PageSpaceManager ps(1ULL << 30, /*ioThreads=*/0,
                                   pagespace::RetryPolicy{}, shards);
    ps.attach(0, &slide);
    for (std::uint64_t p = 0; p < layout.chunkCount(); ++p) {
      (void)ps.fetch({0, p});
    }
    std::atomic<std::uint64_t> sink{0};
    const std::uint64_t nPages = layout.chunkCount();
    RunResult r = hammer(
        threads, totalOps,
        {lockorder::Rank::kPageSpaceShard, lockorder::Rank::kPageSpace},
        [&](std::uint64_t t, std::uint64_t i) {
          const storage::PageKey key{0, mix(t, i) % nPages};
          sink.fetch_add(ps.fetch(key)->size(), std::memory_order_relaxed);
        });
    if (r.opsPerSec > best.opsPerSec) best = r;
  }
  return best;
}

/// Data Store hot hits: noteReuse() recency touches of resident blobs (no
/// lookup scan, no eviction) on the store's one lock.
RunResult runDs(int threads, std::uint64_t totalOps, int blobs, int trials) {
  vm::VMSemantics sem;
  const storage::DatasetId dataset =
      sem.addDataset(index::ChunkLayout(8192, 8192, 64));
  RunResult best;
  for (int trial = 0; trial < trials; ++trial) {
    datastore::DataStore ds(1ULL << 30, &sem);
    std::vector<datastore::BlobId> ids;
    for (int b = 0; b < blobs; ++b) {
      auto pred = std::make_unique<vm::VMPredicate>(
          dataset, Rect::ofSize((b % 64) * 128, (b / 64) * 128, 64, 64),
          /*zoom=*/2, vm::VMOp::Subsample);
      const std::uint64_t bytes = vm::asVM(*pred).outBytes();
      const auto id = ds.insert(std::move(pred), {}, bytes);
      if (id.has_value()) ids.push_back(*id);
    }
    RunResult r = hammer(
        threads, totalOps, {lockorder::Rank::kDataStore},
        [&](std::uint64_t t, std::uint64_t i) {
          ds.noteReuse(ids[mix(t, i) % ids.size()], 1.0);
        });
    if (r.opsPerSec > best.opsPerSec) best = r;
  }
  return best;
}

double mops(const RunResult& r) { return r.opsPerSec / 1e6; }

}  // namespace

int main(int argc, char** argv) {
  bench::Context ctx(argc, argv, "contention");
  const Options& opts = ctx.options();
  const int shards = static_cast<int>(opts.getInt("shards", 16));
  const std::uint64_t ops =
      static_cast<std::uint64_t>(opts.getInt("ops", 200000));
  const int trials = static_cast<int>(opts.getInt("trials", 3));
  const int pages = static_cast<int>(opts.getInt("pages", 256));
  const int blobs = static_cast<int>(opts.getInt("blobs", 256));

  if (opts.getBool("smoke", false)) {
    // Guardrail, not a speedup assertion: on a loaded or single-core CI
    // box the sharded path must simply not be slower than the single lock
    // beyond noise (best of 5 interleaved trials each, 15% margin).
    constexpr int kSmokeTrials = 5;
    const int threads = static_cast<int>(opts.getInt("smoke-threads", 8));
    RunResult single, sharded;
    for (int trial = 0; trial < kSmokeTrials; ++trial) {
      const RunResult a = runPs(threads, 1, ops, pages, /*trials=*/1);
      const RunResult b = runPs(threads, shards, ops, pages, /*trials=*/1);
      if (a.opsPerSec > single.opsPerSec) single = a;
      if (b.opsPerSec > sharded.opsPerSec) sharded = b;
    }
    const double ratio = sharded.opsPerSec / single.opsPerSec;
    std::cout << "# smoke: ps hot-hit @" << threads << " threads: single "
              << formatDouble(mops(single), 3) << " Mops/s (contended "
              << single.contended << "), sharded x" << shards << " "
              << formatDouble(mops(sharded), 3) << " Mops/s (contended "
              << sharded.contended << "), ratio "
              << formatDouble(ratio, 3) << "\n";
    if (ratio < 0.85) {
      std::cout << "# FAIL: sharded path slower than the single lock\n";
      return 1;
    }
    return 0;
  }

  ctx.printHeader();
  const auto threadList =
      opts.getIntList("threads", {1, 2, 4, 8, 16, 32, 64, 128});

  Table tput("hot_hit_mops");
  tput.setColumns(
      {"threads", "ps_single", "ps_sharded", "ps_speedup", "ds_single"});
  Table cont("contended_acquisitions");
  cont.setColumns({"threads", "ps_single", "ps_sharded", "ds_single"});
  for (std::int64_t t : threadList) {
    const int threads = static_cast<int>(t);
    const RunResult ps1 = runPs(threads, 1, ops, pages, trials);
    const RunResult psN = runPs(threads, shards, ops, pages, trials);
    const RunResult ds1 = runDs(threads, ops, blobs, trials);
    tput.addRow(std::to_string(threads),
                {mops(ps1), mops(psN), psN.opsPerSec / ps1.opsPerSec,
                 mops(ds1)});
    cont.addRow(std::to_string(threads),
                {static_cast<double>(ps1.contended),
                 static_cast<double>(psN.contended),
                 static_cast<double>(ds1.contended)},
                /*precision=*/0);
  }
  ctx.emit(tput);
  ctx.emit(cont);
  // The scaling gap is a function of real hardware parallelism: on a
  // single-core host every thread count serializes and both configs
  // converge, so the JSON records the host width next to the sweep.
  Table prov("provenance");
  prov.setColumns({"host_threads", "ps_shards", "ops", "trials"});
  prov.addRow({std::to_string(std::thread::hardware_concurrency()),
               std::to_string(shards), std::to_string(ops),
               std::to_string(trials)});
  ctx.emit(prov);
  return 0;
}
