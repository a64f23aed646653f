// Differential guard for the pluggable-eviction refactor (DESIGN.md §13):
// a DataStore built with the Lru ranker and no spill tier must reproduce
// the historical inline-LRU store byte for byte. The oracle below *is* the
// historical algorithm — front-of-list most recent, victims taken from the
// unpinned tail, dense id sequence 1, 2, 3, ... — and a
// seeded random op stream (insert / lookup / noteReuse / erase) drives both
// in lockstep, comparing ids, eviction order, residency, and counters after
// every step. A lookup is the planner's reuse test for one source:
// lookupTopK(k = 1), then noteReuse() on the winner.
#include <gtest/gtest.h>

#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "datastore/data_store.hpp"
#include "vm/vm_predicate.hpp"
#include "vm/vm_semantics.hpp"

namespace mqs::datastore {
namespace {

using vm::VMOp;
using vm::VMPredicate;

/// The pre-refactor store, reduced to its observable algorithm.
class LruOracle {
 public:
  LruOracle(std::uint64_t capacity, const query::QuerySemantics* sem)
      : capacity_(capacity), sem_(sem) {}

  std::optional<BlobId> insert(query::PredicatePtr pred, std::uint64_t bytes,
                               std::vector<BlobId>& evictedLog) {
    ++inserts_;
    if (bytes > capacity_) return std::nullopt;
    while (resident_ + bytes > capacity_) {
      const BlobId victim = lru_.back();
      remove(victim);
      ++evictions_;
      evictedLog.push_back(victim);
    }
    const BlobId id = nextId_++;
    lru_.push_front(id);
    blobs_.emplace(id, Blob{std::move(pred), bytes, lru_.begin()});
    resident_ += bytes;
    return id;
  }

  /// Best strictly-greater-than-`minOverlap` resident blob, ties toward
  /// the newer (higher) id. Does not touch recency: the caller reports the
  /// winner through noteReuse(), as the planner does.
  std::optional<DataStore::Match> lookup(const query::Predicate& q,
                                         double minOverlap) {
    ++lookups_;
    std::optional<DataStore::Match> best;
    for (const auto& [id, b] : blobs_) {
      const double ov = sem_->overlap(*b.pred, q);
      if (ov <= minOverlap) continue;
      if (!best || ov > best->overlap ||
          (ov == best->overlap && id > best->id)) {
        best = DataStore::Match{id, ov};
      }
    }
    return best;
  }

  void noteReuse(BlobId id, double overlap) {
    auto it = blobs_.find(id);
    if (it == blobs_.end()) return;
    lru_.splice(lru_.begin(), lru_, it->second.lruIt);
    ++hits_;
    if (overlap >= 1.0) ++fullHits_;
  }

  void erase(BlobId id, std::vector<BlobId>& evictedLog) {
    if (!blobs_.contains(id)) return;
    remove(id);
    evictedLog.push_back(id);  // listener fires; stats().evictions does not
  }

  [[nodiscard]] std::uint64_t residentBytes() const { return resident_; }
  [[nodiscard]] std::size_t residentBlobs() const { return blobs_.size(); }
  [[nodiscard]] DataStore::Stats stats() const {
    DataStore::Stats s;
    s.lookups = lookups_;
    s.hits = hits_;
    s.fullHits = fullHits_;
    s.inserts = inserts_;
    s.evictions = evictions_;
    s.uncacheable = inserts_ - (nextId_ - 1);
    return s;
  }

 private:
  struct Blob {
    query::PredicatePtr pred;
    std::uint64_t bytes = 0;
    std::list<BlobId>::iterator lruIt;
  };

  void remove(BlobId id) {
    auto it = blobs_.find(id);
    resident_ -= it->second.bytes;
    lru_.erase(it->second.lruIt);
    blobs_.erase(it);
  }

  const std::uint64_t capacity_;
  const query::QuerySemantics* sem_;
  std::list<BlobId> lru_;  ///< front = most recent
  std::unordered_map<BlobId, Blob> blobs_;
  std::uint64_t resident_ = 0;
  BlobId nextId_ = 1;
  std::uint64_t lookups_ = 0, hits_ = 0, fullHits_ = 0, inserts_ = 0,
                evictions_ = 0;
};

class LruDifferentialTest : public ::testing::Test {
 protected:
  LruDifferentialTest() {
    dataset_ = sem_.addDataset(index::ChunkLayout(4096, 4096, 64));
  }

  query::PredicatePtr randomPred(Rng& rng) {
    const std::uint32_t zoom = 1u << rng.uniformInt(1, 3);  // 2, 4, 8
    const std::int64_t grid = 32;
    const std::int64_t x = rng.uniformInt(0, 96) * grid;
    const std::int64_t y = rng.uniformInt(0, 96) * grid;
    const std::int64_t w = rng.uniformInt(1, 16) * grid;
    const std::int64_t h = rng.uniformInt(1, 16) * grid;
    return std::make_unique<VMPredicate>(
        dataset_,
        Rect::ofSize(std::min<std::int64_t>(x, 4096 - w),
                     std::min<std::int64_t>(y, 4096 - h), w, h),
        zoom, VMOp::Subsample);
  }

  vm::VMSemantics sem_;
  storage::DatasetId dataset_ = 0;
};

TEST_F(LruDifferentialTest, RankerStoreMatchesInlineLruOracle) {
  // Tight enough that the stream keeps the store under eviction pressure.
  const std::uint64_t capacity = 96 << 10;
  DataStore ds(capacity, &sem_, EvictionPolicy::Lru);
  LruOracle oracle(capacity, &sem_);

  std::vector<BlobId> dsEvicted;
  std::vector<BlobId> oracleEvicted;
  ds.setEvictionListener(
      [&dsEvicted](EvictedBlob blob) { dsEvicted.push_back(blob.id); });

  Rng rng(0x15504202ULL);
  std::vector<query::PredicatePtr> inserted;  // probe pool for lookups
  std::vector<BlobId> ids;                    // ever-issued ids

  for (int step = 0; step < 2000; ++step) {
    const double dice = rng.uniform01();
    if (dice < 0.50 || inserted.empty()) {
      auto p = randomPred(rng);
      const std::uint64_t bytes = vm::asVM(*p).outBytes();
      const auto a = ds.insert(p->clone(), {}, bytes);
      const auto b = oracle.insert(p->clone(), bytes, oracleEvicted);
      ASSERT_EQ(a, b) << "insert diverged at step " << step;
      if (a) ids.push_back(*a);
      inserted.push_back(std::move(p));
    } else if (dice < 0.80) {
      // Lookup: half exact probes of past inserts, half fresh regions.
      const auto probe =
          rng.uniform01() < 0.5
              ? inserted[static_cast<std::size_t>(rng.uniformInt(
                             0, static_cast<std::int64_t>(inserted.size()) -
                                    1))]
                    ->clone()
              : randomPred(rng);
      const auto a = ds.lookupTopK(*probe, 1);
      const auto best = oracle.lookup(*probe, 0.0);
      ASSERT_EQ(!a.empty(), best.has_value())
          << "hit/miss diverged at step " << step;
      if (best) {
        ASSERT_EQ(a.front().id, best->id)
            << "winner (tie rule) diverged at step " << step;
        ASSERT_DOUBLE_EQ(a.front().overlap, best->overlap);
        ds.noteReuse(a.front().id, a.front().overlap);
        oracle.noteReuse(best->id, best->overlap);
      }
    } else if (dice < 0.90 && !ids.empty()) {
      const BlobId id = ids[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))];
      ds.noteReuse(id, 1.0);
      oracle.noteReuse(id, 1.0);
    } else if (!ids.empty()) {
      const BlobId id = ids[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))];
      ds.erase(id);
      oracle.erase(id, oracleEvicted);
    }

    ASSERT_EQ(ds.residentBytes(), oracle.residentBytes())
        << "residency diverged at step " << step;
    ASSERT_EQ(ds.residentBlobs(), oracle.residentBlobs());
    ASSERT_EQ(dsEvicted, oracleEvicted)
        << "eviction order diverged at step " << step;
  }

  // Byte-identical also in the aggregates the engines report.
  const auto a = ds.stats();
  const auto b = oracle.stats();
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.fullHits, b.fullHits);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.uncacheable, b.uncacheable);
  EXPECT_GT(a.evictions, 100u);  // the stream actually exercised pressure
}

}  // namespace
}  // namespace mqs::datastore
