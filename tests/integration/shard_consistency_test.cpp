// Shared-cache consistency suite (DESIGN.md §10).
//
// Two families of guarantees:
//  (1) Determinism: the Data Store allocates the dense blob ids 1, 2, 3, ...
//      and evicts in global LRU order.
//  (2) Consistency: randomized multi-threaded traffic against the Data
//      Store and the Page Space, each behind its one lock, leaves every
//      invariant intact (resident <= capacity, settled claims and pins).
//      These tests are the TSan targets for the `shard` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <latch>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "datastore/data_store.hpp"
#include "index/chunk_layout.hpp"
#include "pagespace/page_space_manager.hpp"
#include "storage/synthetic_source.hpp"
#include "vm/vm_predicate.hpp"
#include "vm/vm_semantics.hpp"

namespace mqs {
namespace {

using vm::VMOp;
using vm::VMPredicate;

class ShardConsistencyTest : public ::testing::Test {
 protected:
  ShardConsistencyTest() {
    dataset_ = sem_.addDataset(index::ChunkLayout(16384, 16384, 64));
  }

  query::PredicatePtr pred(Rect region, std::uint32_t zoom = 4) {
    return std::make_unique<VMPredicate>(dataset_, region, zoom,
                                         VMOp::Subsample);
  }

  std::uint64_t outBytes(const query::Predicate& p) {
    return vm::asVM(p).outBytes();
  }

  vm::VMSemantics sem_;
  storage::DatasetId dataset_ = 0;
};

// ---------------------------------------------------------------------------
// Determinism of the Data Store.

TEST_F(ShardConsistencyTest, SingleShardKeepsSequentialBlobIds) {
  datastore::DataStore ds(1ULL << 24, &sem_);
  for (std::uint64_t i = 0; i < 8; ++i) {
    auto p = pred(Rect::ofSize(static_cast<std::int64_t>(i) * 256, 0, 64, 64));
    const auto bytes = outBytes(*p);
    const auto id = ds.insert(std::move(p), {}, bytes);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(*id, i + 1);  // the historical allocator: 1, 2, 3, ...
  }
}

TEST_F(ShardConsistencyTest, SingleShardEvictsInGlobalLruOrder) {
  // Capacity for exactly four 64x64 zoom-4 blobs; refresh #1 the way the
  // planner does (lookupTopK, then noteReuse), insert a fifth: the global
  // LRU must evict #2.
  auto probe = pred(Rect::ofSize(0, 0, 64, 64));
  const std::uint64_t one = outBytes(*probe);
  datastore::DataStore ds(4 * one, &sem_);
  std::vector<datastore::BlobId> evicted;
  ds.setEvictionListener(
      [&](datastore::EvictedBlob blob) { evicted.push_back(blob.id); });
  std::vector<datastore::BlobId> ids;
  for (int i = 0; i < 4; ++i) {
    auto p = pred(Rect::ofSize(i * 256, 0, 64, 64));
    ids.push_back(*ds.insert(std::move(p), {}, one));
  }
  const auto hit = ds.lookupTopK(*pred(Rect::ofSize(0, 0, 64, 64)), 1);
  ASSERT_EQ(hit.size(), 1u);
  ASSERT_EQ(hit.front().id, ids[0]);
  ds.noteReuse(hit.front().id, hit.front().overlap);
  auto p = pred(Rect::ofSize(4 * 256, 0, 64, 64));
  ASSERT_TRUE(ds.insert(std::move(p), {}, one).has_value());
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted.front(), ids[1]);  // #1 was refreshed; #2 is LRU tail
  EXPECT_EQ(ds.stats().evictions, 1u);
}

// ---------------------------------------------------------------------------
// Randomized multi-threaded consistency (TSan targets).

TEST_F(ShardConsistencyTest, DataStoreSurvivesConcurrentMixedTraffic) {
  constexpr int kThreads = 4, kOpsPerThread = 400;
  auto probe = pred(Rect::ofSize(0, 0, 128, 128));
  const std::uint64_t one = outBytes(*probe);
  datastore::DataStore ds(24 * one, &sem_);
  // Thread t owns grid columns t, t + kThreads, ...: its lookups, pins and
  // erases touch only its own blobs (erasing a blob another thread has
  // pinned breaks the store's contract), while every thread's inserts
  // compete for the one budget and evict each other's blobs.
  const auto anchorCell = [](int t) {
    return Rect::ofSize(t * 256, 40 * 256, 128, 128);  // off the grid
  };
  // One anchor per worker, held pinned by the test thread until every
  // worker has read its own anchor pinned: that first pinned read cannot
  // lose to eviction, so pinnedReads >= kThreads on every run.
  const std::vector<std::byte> anchorPayload(64, std::byte{0x5a});
  std::vector<datastore::BlobId> anchors;
  for (int t = 0; t < kThreads; ++t) {
    const auto id = ds.insert(pred(anchorCell(t)), anchorPayload, one);
    ASSERT_TRUE(id.has_value());
    ds.pin(*id);
    anchors.push_back(*id);
  }
  std::latch anchorsRead(kThreads);
  std::atomic<std::uint64_t> pinnedReads{0};
  // The planner's source selection: best candidate, pinned, then reported.
  const auto pinnedRead = [&](const query::Predicate& q) {
    const auto top = ds.lookupTopK(q, 1);
    if (top.empty() || !ds.tryPin(top.front().id)) return false;
    const datastore::DataStore::PinGuard guard(ds, top.front().id);
    ds.noteReuse(top.front().id, top.front().overlap);
    const auto bytes = ds.payload(top.front().id);
    EXPECT_TRUE(bytes.empty() ||
                std::equal(bytes.begin(), bytes.end(), anchorPayload.begin(),
                           anchorPayload.end()));
    pinnedReads.fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        EXPECT_TRUE(pinnedRead(*pred(anchorCell(t))));
        anchorsRead.count_down();
        Rng rng(static_cast<std::uint64_t>(t) + 17);
        std::vector<datastore::BlobId> ids;
        const auto cell = [&] {
          return Rect::ofSize((rng.uniformInt(0, 7) * kThreads + t) * 256,
                              rng.uniformInt(0, 31) * 256, 128, 128);
        };
        for (int i = 0; i < kOpsPerThread; ++i) {
          const int op = static_cast<int>(rng.uniformInt(0, 9));
          if (op < 4) {
            (void)ds.insert(pred(cell()), {}, one);
            const auto top = ds.lookupTopK(*pred(cell()), 1);
            if (!top.empty()) ids.push_back(top.front().id);
          } else if (op < 7) {
            (void)pinnedRead(*pred(cell()));
          } else if (!ids.empty()) {
            const auto id = ids[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(ids.size()) - 1))];
            if (op == 7) {
              ds.noteReuse(id, 0.5);
            } else if (op == 8) {
              if (ds.tryPin(id)) ds.unpin(id);
            } else {
              ds.erase(id);
            }
          }
        }
      });
    }
    anchorsRead.wait();
    for (const auto id : anchors) ds.unpin(id);
  }
  EXPECT_LE(ds.residentBytes(), ds.capacityBytes());
  EXPECT_EQ(ds.pinnedBlobs(), 0u);
  const auto st = ds.stats();
  EXPECT_LE(st.hits, st.lookups);
  EXPECT_GE(pinnedReads.load(), static_cast<std::uint64_t>(kThreads));
}

TEST_F(ShardConsistencyTest, PageSpaceSurvivesConcurrentFetchTraffic) {
  constexpr int kThreads = 4, kOpsPerThread = 300;
  const index::ChunkLayout layout(64 * 64, 64, 64);
  const storage::SyntheticSlideSource slide(layout, /*seed=*/11);
  // Capacity for ~1/4 of the working set: constant eviction while four
  // threads fetch and prefetch.
  pagespace::PageSpaceManager ps(16 * layout.fullChunkBytes(),
                                 /*ioThreads=*/2);
  ps.attach(0, &slide);
  std::atomic<std::uint64_t> bytes{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(static_cast<std::uint64_t>(t) + 29);
        const auto n = static_cast<std::int64_t>(layout.chunkCount());
        for (int i = 0; i < kOpsPerThread; ++i) {
          const storage::PageKey key{
              0, static_cast<std::uint64_t>(rng.uniformInt(0, n - 1))};
          if (rng.uniformInt(0, 3) == 0) ps.prefetch(key);
          bytes.fetch_add(ps.fetch(key)->size(), std::memory_order_relaxed);
        }
      });
    }
  }
  EXPECT_GT(bytes.load(), 0u);
  EXPECT_EQ(ps.inflightCount(), 0u);
  EXPECT_EQ(ps.claimCount(), 0u);
  EXPECT_LE(ps.residentBytes(), ps.capacityBytes());
  const auto st = ps.stats();
  EXPECT_EQ(st.hits + st.misses + st.merged,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

}  // namespace
}  // namespace mqs
