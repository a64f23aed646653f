// Model-based property test: the Data Store against a brute-force
// reference model, under long random sequences of insert / lookup / pin /
// unpin / erase, with LRU eviction tracked exactly.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <set>

#include "common/rng.hpp"
#include "datastore/data_store.hpp"
#include "vm/vm_predicate.hpp"
#include "vm/vm_semantics.hpp"

namespace mqs::datastore {
namespace {

using vm::VMOp;
using vm::VMPredicate;

/// Reference LRU model tracking exactly what must be resident.
struct Model {
  struct Entry {
    std::uint64_t bytes = 0;
    int pins = 0;
  };
  std::uint64_t capacity = 0;
  std::uint64_t resident = 0;
  std::list<BlobId> lru;  // front = most recent
  std::map<BlobId, Entry> entries;

  void touch(BlobId id) {
    lru.remove(id);
    lru.push_front(id);
  }

  bool insert(BlobId id, std::uint64_t bytes) {
    if (bytes > capacity) return false;
    while (resident + bytes > capacity) {
      // Find the least-recent unpinned entry.
      BlobId victim = 0;
      bool found = false;
      for (auto it = lru.rbegin(); it != lru.rend(); ++it) {
        if (entries[*it].pins == 0) {
          victim = *it;
          found = true;
          break;
        }
      }
      if (!found) return false;
      resident -= entries[victim].bytes;
      entries.erase(victim);
      lru.remove(victim);
    }
    entries[id] = Entry{bytes, 0};
    lru.push_front(id);
    resident += bytes;
    return true;
  }
};

TEST(DataStoreProperty, MatchesReferenceLruModel) {
  vm::VMSemantics sem;
  (void)sem.addDataset(index::ChunkLayout(1 << 16, 1 << 16, 146));

  constexpr std::uint64_t kCapacity = 10'000;
  DataStore ds(kCapacity, &sem);
  Model model;
  model.capacity = kCapacity;

  Rng rng(0xDA7A);
  std::vector<BlobId> live;  // ids we believe are resident
  std::set<BlobId> pinned;
  BlobId nextExpected = 1;  // DataStore ids are sequential from 1

  // Disjoint regions so overlap-based lookups target exactly one blob.
  auto regionFor = [](std::uint64_t id) {
    const auto i = static_cast<std::int64_t>(id);
    return Rect::ofSize((i % 256) * 256, (i / 256) * 256, 64, 64);
  };

  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.45) {
      // Insert a new blob with a random logical size.
      const auto bytes = static_cast<std::uint64_t>(rng.uniformInt(100, 3000));
      const BlobId probeId = nextExpected;
      auto pred = std::make_unique<VMPredicate>(0, regionFor(probeId), 1,
                                                VMOp::Subsample);
      const auto got = ds.insert(std::move(pred), {}, bytes);
      const bool expectOk = model.insert(probeId, bytes);
      ASSERT_EQ(got.has_value(), expectOk) << "step " << step;
      if (got) {
        ASSERT_EQ(*got, probeId);
        live.push_back(*got);
        ++nextExpected;
      }
    } else if (roll < 0.75 && !live.empty()) {
      // Lookup by exact predicate of a random previously-inserted blob.
      const BlobId id = live[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(live.size()) - 1))];
      const VMPredicate probe(0, regionFor(id), 1, VMOp::Subsample);
      // The planner's reuse test: best candidate, then report it used.
      const auto top = ds.lookupTopK(probe, 1);
      const bool expectHit = model.entries.contains(id);
      ASSERT_EQ(!top.empty(), expectHit) << "step " << step << " id " << id;
      if (!top.empty()) {
        ASSERT_EQ(top.front().id, id);
        ds.noteReuse(top.front().id, top.front().overlap);
        model.touch(id);
      }
    } else if (roll < 0.85 && !live.empty()) {
      // Toggle a pin on a random blob (if resident).
      const BlobId id = live[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(live.size()) - 1))];
      if (pinned.contains(id)) {
        ds.unpin(id);
        if (auto it = model.entries.find(id); it != model.entries.end()) {
          --it->second.pins;
        }
        pinned.erase(id);
      } else if (ds.tryPin(id)) {
        ASSERT_TRUE(model.entries.contains(id));
        ++model.entries[id].pins;
        pinned.insert(id);
      } else {
        ASSERT_FALSE(model.entries.contains(id));
      }
    } else if (!live.empty()) {
      // Erase a random unpinned blob.
      const BlobId id = live[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(live.size()) - 1))];
      if (!pinned.contains(id)) {
        ds.erase(id);
        if (auto it = model.entries.find(id); it != model.entries.end()) {
          model.resident -= it->second.bytes;
          model.entries.erase(it);
          model.lru.remove(id);
        }
      }
    }

    // Global agreement.
    ASSERT_EQ(ds.residentBytes(), model.resident) << "step " << step;
    ASSERT_EQ(ds.residentBlobs(), model.entries.size()) << "step " << step;
  }

  // Final deep agreement: every model entry resident, everything else not.
  for (const auto& [id, e] : model.entries) {
    EXPECT_TRUE(ds.contains(id));
  }
  for (const BlobId id : live) {
    EXPECT_EQ(ds.contains(id), model.entries.contains(id));
  }
  // Leave no pins behind (sanity of the test itself).
  for (const BlobId id : pinned) ds.unpin(id);
}

}  // namespace
}  // namespace mqs::datastore
