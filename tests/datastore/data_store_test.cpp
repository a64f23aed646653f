#include "datastore/data_store.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/check.hpp"
#include "vm/vm_predicate.hpp"
#include "vm/vm_semantics.hpp"

namespace mqs::datastore {
namespace {

using vm::VMOp;
using vm::VMPredicate;

class DataStoreTest : public ::testing::Test {
 protected:
  DataStoreTest() {
    dataset_ = sem_.addDataset(index::ChunkLayout(4096, 4096, 64));
  }

  query::PredicatePtr pred(Rect region, std::uint32_t zoom,
                           VMOp op = VMOp::Subsample) {
    return std::make_unique<VMPredicate>(dataset_, region, zoom, op);
  }

  static std::uint64_t outBytes(const query::Predicate& p) {
    return vm::asVM(p).outBytes();
  }

  /// The planner's reuse test for one source: the best match (ties toward
  /// the newer blob), reported back as used so it refreshes recency and
  /// counts a hit.
  static std::optional<DataStore::Match> lookup(DataStore& ds,
                                                const query::Predicate& q,
                                                double minOverlap = 0.0) {
    const auto top = ds.lookupTopK(q, 1, minOverlap);
    if (top.empty()) return std::nullopt;
    ds.noteReuse(top.front().id, top.front().overlap);
    return top.front();
  }

  /// lookup() that also pins the match the way the planner does: tryPin
  /// the candidate before reporting it, so an eviction cannot slip between.
  static std::optional<DataStore::Match> lookupAndPin(
      DataStore& ds, const query::Predicate& q) {
    const auto top = ds.lookupTopK(q, 1);
    if (top.empty() || !ds.tryPin(top.front().id)) return std::nullopt;
    ds.noteReuse(top.front().id, top.front().overlap);
    return top.front();
  }

  vm::VMSemantics sem_;
  storage::DatasetId dataset_ = 0;
};

TEST_F(DataStoreTest, InsertAndExactLookup) {
  DataStore ds(1 << 20, &sem_);
  auto p = pred(Rect::ofSize(0, 0, 256, 256), 4);
  const auto id = ds.insert(p->clone(), {}, outBytes(*p));
  ASSERT_TRUE(id.has_value());
  const auto m = lookup(ds, *p);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, *id);
  EXPECT_DOUBLE_EQ(m->overlap, 1.0);
}

TEST_F(DataStoreTest, LookupPicksBestOverlap) {
  DataStore ds(1 << 24, &sem_);
  // Same region at zoom 2 (projectable, overlap 0.5 into a zoom-4 query)
  // and at zoom 4 (overlap 1).
  auto loRes = pred(Rect::ofSize(0, 0, 256, 256), 4);
  auto hiRes = pred(Rect::ofSize(0, 0, 256, 256), 2);
  (void)ds.insert(hiRes->clone(), {}, outBytes(*hiRes));
  const auto bestId = ds.insert(loRes->clone(), {}, outBytes(*loRes));
  const auto m = lookup(ds, *pred(Rect::ofSize(0, 0, 256, 256), 4));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, *bestId);
  EXPECT_DOUBLE_EQ(m->overlap, 1.0);
}

TEST_F(DataStoreTest, LookupTopKBreaksTiesTowardNewerBlob) {
  // Two results for the same predicate overlap the query equally; the
  // newer one ranks first, so the planner's single best source is it.
  DataStore ds(1 << 24, &sem_);
  auto p = pred(Rect::ofSize(0, 0, 256, 256), 4);
  const auto older = ds.insert(p->clone(), {}, outBytes(*p));
  const auto newer = ds.insert(p->clone(), {}, outBytes(*p));
  ASSERT_TRUE(older.has_value() && newer.has_value());
  const auto top = ds.lookupTopK(*p, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, *newer);
  EXPECT_EQ(top[1].id, *older);
  EXPECT_DOUBLE_EQ(top[0].overlap, top[1].overlap);
  const auto m = lookup(ds, *p);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, *newer);
}

TEST_F(DataStoreTest, LookupMissesDisjointRegions) {
  DataStore ds(1 << 20, &sem_);
  auto p = pred(Rect::ofSize(0, 0, 128, 128), 4);
  (void)ds.insert(p->clone(), {}, outBytes(*p));
  EXPECT_FALSE(lookup(ds, *pred(Rect::ofSize(2048, 2048, 128, 128), 4)));
}

TEST_F(DataStoreTest, MinOverlapThreshold) {
  DataStore ds(1 << 24, &sem_);
  // Cached result covers a quarter of the query region.
  auto cached = pred(Rect::ofSize(0, 0, 128, 128), 4);
  (void)ds.insert(cached->clone(), {}, outBytes(*cached));
  auto q = pred(Rect::ofSize(0, 0, 256, 256), 4);
  EXPECT_TRUE(lookup(ds, *q, 0.0).has_value());   // 0.25 > 0
  EXPECT_FALSE(lookup(ds, *q, 0.25).has_value()); // strictly greater required
  EXPECT_FALSE(lookup(ds, *q, 0.5).has_value());
}

TEST_F(DataStoreTest, LruEvictionWithListener) {
  // Budget: exactly two 64x64-output blobs (64*64*3 bytes each).
  auto a = pred(Rect::ofSize(0, 0, 256, 256), 4);
  const std::uint64_t blobBytes = outBytes(*a);
  DataStore ds(2 * blobBytes, &sem_);
  std::vector<BlobId> evicted;
  ds.setEvictionListener(
      [&](EvictedBlob blob) { evicted.push_back(blob.id); });

  const auto ida = ds.insert(a->clone(), {}, blobBytes);
  auto b = pred(Rect::ofSize(256, 0, 256, 256), 4);
  (void)ds.insert(b->clone(), {}, blobBytes);
  // Touch a so b is LRU.
  (void)lookup(ds, *a);
  auto c = pred(Rect::ofSize(512, 0, 256, 256), 4);
  (void)ds.insert(c->clone(), {}, blobBytes);

  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_NE(evicted[0], *ida);  // b was evicted, not the touched a
  EXPECT_TRUE(lookup(ds, *a).has_value());
  EXPECT_FALSE(lookup(ds, *b, 0.9).has_value());
  EXPECT_EQ(ds.residentBlobs(), 2u);
}

TEST_F(DataStoreTest, PinnedBlobSurvivesPressure) {
  auto a = pred(Rect::ofSize(0, 0, 256, 256), 4);
  const std::uint64_t blobBytes = outBytes(*a);
  DataStore ds(2 * blobBytes, &sem_);
  const auto ida = ds.insert(a->clone(), {}, blobBytes);
  ds.pin(*ida);
  auto b = pred(Rect::ofSize(256, 0, 256, 256), 4);
  (void)ds.insert(b->clone(), {}, blobBytes);
  auto c = pred(Rect::ofSize(512, 0, 256, 256), 4);
  (void)ds.insert(c->clone(), {}, blobBytes);
  EXPECT_TRUE(ds.contains(*ida));
  ds.unpin(*ida);
}

TEST_F(DataStoreTest, LookupAndPinBlocksEviction) {
  auto a = pred(Rect::ofSize(0, 0, 256, 256), 4);
  const std::uint64_t blobBytes = outBytes(*a);
  DataStore ds(blobBytes, &sem_);
  (void)ds.insert(a->clone(), {}, blobBytes);
  const auto m = lookupAndPin(ds, *a);
  ASSERT_TRUE(m.has_value());
  // New insert cannot evict the pinned blob -> uncacheable.
  auto b = pred(Rect::ofSize(256, 0, 256, 256), 4);
  EXPECT_FALSE(ds.insert(b->clone(), {}, blobBytes).has_value());
  EXPECT_EQ(ds.stats().uncacheable, 1u);
  ds.unpin(m->id);
  EXPECT_TRUE(ds.insert(b->clone(), {}, blobBytes).has_value());
}

TEST_F(DataStoreTest, TryPin) {
  DataStore ds(1 << 20, &sem_);
  auto a = pred(Rect::ofSize(0, 0, 128, 128), 4);
  const auto id = ds.insert(a->clone(), {}, outBytes(*a));
  EXPECT_TRUE(ds.tryPin(*id));
  ds.unpin(*id);
  ds.erase(*id);
  EXPECT_FALSE(ds.tryPin(*id));
}

TEST_F(DataStoreTest, OversizedBlobRejected) {
  DataStore ds(100, &sem_);
  auto a = pred(Rect::ofSize(0, 0, 256, 256), 4);
  EXPECT_FALSE(ds.insert(a->clone(), {}, outBytes(*a)).has_value());
  EXPECT_EQ(ds.stats().uncacheable, 1u);
  EXPECT_EQ(ds.residentBlobs(), 0u);
}

TEST_F(DataStoreTest, PayloadRoundTrip) {
  DataStore ds(1 << 20, &sem_);
  auto a = pred(Rect::ofSize(0, 0, 128, 128), 4);
  std::vector<std::byte> payload = {std::byte{1}, std::byte{2}, std::byte{3}};
  const auto id = ds.insert(a->clone(), payload, outBytes(*a));
  ASSERT_TRUE(id);
  const auto got = ds.payload(*id);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[1], std::byte{2});
  EXPECT_EQ(ds.predicate(*id).describe(), a->describe());
}

TEST_F(DataStoreTest, LogicalBytesDriveBudgetNotPayload) {
  // Simulation mode: empty payloads, logical accounting still evicts.
  DataStore ds(1000, &sem_);
  auto a = pred(Rect::ofSize(0, 0, 128, 128), 4);
  const auto id1 = ds.insert(a->clone(), {}, 600);
  auto b = pred(Rect::ofSize(128, 0, 128, 128), 4);
  (void)ds.insert(b->clone(), {}, 600);
  EXPECT_FALSE(ds.contains(*id1));
  EXPECT_EQ(ds.stats().evictions, 1u);
}

TEST_F(DataStoreTest, EraseFiresListener) {
  DataStore ds(1 << 20, &sem_);
  int fired = 0;
  ds.setEvictionListener([&](EvictedBlob) { ++fired; });
  auto a = pred(Rect::ofSize(0, 0, 128, 128), 4);
  const auto id = ds.insert(a->clone(), {}, outBytes(*a));
  ds.erase(*id);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(ds.contains(*id));
  ds.erase(*id);  // no-op, no second fire
  EXPECT_EQ(fired, 1);
}

TEST_F(DataStoreTest, StatsCountHitsAndFullHits) {
  DataStore ds(1 << 24, &sem_);
  auto a = pred(Rect::ofSize(0, 0, 256, 256), 4);
  (void)ds.insert(a->clone(), {}, outBytes(*a));
  (void)lookup(ds, *a);                                    // full hit
  (void)lookup(ds, *pred(Rect::ofSize(0, 0, 512, 512), 4)); // partial hit
  (void)lookup(ds, *pred(Rect::ofSize(2048, 2048, 64, 64), 4)); // miss
  const auto s = ds.stats();
  EXPECT_EQ(s.lookups, 3u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.fullHits, 1u);
}

TEST_F(DataStoreTest, LfuEvictsColdBlobs) {
  auto a = pred(Rect::ofSize(0, 0, 256, 256), 4);
  const std::uint64_t blobBytes = outBytes(*a);
  DataStore ds(2 * blobBytes, &sem_, EvictionPolicy::Lfu);
  const auto ida = ds.insert(a->clone(), {}, blobBytes);
  auto b = pred(Rect::ofSize(1024, 0, 256, 256), 4);
  const auto idb = ds.insert(b->clone(), {}, blobBytes);
  // Hit a twice, b never. Under LRU, inserting c would evict a-or-b by
  // recency; under LFU, b (0 uses) must go even if a is less recent.
  (void)lookup(ds, *a);
  (void)lookup(ds, *a);
  auto c = pred(Rect::ofSize(2048, 0, 256, 256), 4);
  (void)ds.insert(c->clone(), {}, blobBytes);
  EXPECT_TRUE(ds.contains(*ida));
  EXPECT_FALSE(ds.contains(*idb));
}

TEST_F(DataStoreTest, LargestEvictsBiggestFirst) {
  DataStore ds(1000, &sem_, EvictionPolicy::Largest);
  auto small = pred(Rect::ofSize(0, 0, 128, 128), 4);
  auto big = pred(Rect::ofSize(1024, 0, 256, 256), 4);
  const auto idSmall = ds.insert(small->clone(), {}, 300);
  const auto idBig = ds.insert(big->clone(), {}, 600);
  // Touch big so LRU would evict small; LARGEST must still pick big.
  (void)lookup(ds, *big);
  auto more = pred(Rect::ofSize(2048, 0, 128, 128), 4);
  (void)ds.insert(more->clone(), {}, 500);
  EXPECT_TRUE(ds.contains(*idSmall));
  EXPECT_FALSE(ds.contains(*idBig));
}

TEST_F(DataStoreTest, NonLruPoliciesStillRespectPins) {
  DataStore ds(1000, &sem_, EvictionPolicy::Largest);
  auto big = pred(Rect::ofSize(0, 0, 256, 256), 4);
  const auto idBig = ds.insert(big->clone(), {}, 900);
  ds.pin(*idBig);
  auto next = pred(Rect::ofSize(1024, 0, 128, 128), 4);
  EXPECT_FALSE(ds.insert(next->clone(), {}, 500).has_value());
  ds.unpin(*idBig);
  EXPECT_TRUE(ds.insert(next->clone(), {}, 500).has_value());
  EXPECT_FALSE(ds.contains(*idBig));
}

TEST_F(DataStoreTest, PinGuardReleasesOnDestruction) {
  DataStore ds(1 << 20, &sem_);
  auto a = pred(Rect::ofSize(0, 0, 128, 128), 4);
  const auto id = ds.insert(a->clone(), {}, outBytes(*a));
  {
    const auto m = lookupAndPin(ds, *a);
    ASSERT_TRUE(m);
    DataStore::PinGuard guard(ds, m->id);
    EXPECT_TRUE(guard.held());
    // Pinned: explicit erase would be a contract violation.
    EXPECT_THROW(ds.erase(*id), CheckFailure);
  }  // guard unpins here
  ds.erase(*id);  // now legal
  EXPECT_FALSE(ds.contains(*id));
}

TEST_F(DataStoreTest, PinGuardMoveTransfersOwnership) {
  DataStore ds(1 << 20, &sem_);
  auto a = pred(Rect::ofSize(0, 0, 128, 128), 4);
  const auto id = ds.insert(a->clone(), {}, outBytes(*a));
  ds.pin(*id);
  DataStore::PinGuard g1(ds, *id);
  DataStore::PinGuard g2(std::move(g1));
  EXPECT_FALSE(g1.held());  // NOLINT(bugprone-use-after-move): tested intent
  EXPECT_TRUE(g2.held());
  g2.release();
  EXPECT_FALSE(g2.held());
  ds.erase(*id);  // pin fully released
}

TEST(EvictionPolicyNames, ParseAndPrint) {
  EXPECT_EQ(parseEvictionPolicy("LRU"), EvictionPolicy::Lru);
  EXPECT_EQ(parseEvictionPolicy("LFU"), EvictionPolicy::Lfu);
  EXPECT_EQ(parseEvictionPolicy("LARGEST"), EvictionPolicy::Largest);
  EXPECT_EQ(toString(EvictionPolicy::Lfu), "LFU");
  EXPECT_THROW(parseEvictionPolicy("MRU"), CheckFailure);
}

TEST_F(DataStoreTest, DifferentOperatorsNeverMatch) {
  DataStore ds(1 << 20, &sem_);
  auto sub = pred(Rect::ofSize(0, 0, 128, 128), 4, VMOp::Subsample);
  (void)ds.insert(sub->clone(), {}, outBytes(*sub));
  EXPECT_FALSE(
      lookup(ds, *pred(Rect::ofSize(0, 0, 128, 128), 4, VMOp::Average)));
}

}  // namespace
}  // namespace mqs::datastore
