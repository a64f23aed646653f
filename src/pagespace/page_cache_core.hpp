// Replacement policy core of the Page Space Manager.
//
// Tracks which pages are resident under a byte budget with LRU eviction and
// pin counts, without owning any page data. The threaded PageSpaceManager
// layers real buffers and in-flight request merging on top; the
// discrete-event engine uses the core directly (it needs residency
// decisions, not bytes).
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "storage/data_source.hpp"

namespace mqs::pagespace {

class PageCacheCore {
 public:
  explicit PageCacheCore(std::uint64_t capacityBytes);

  /// If resident, refresh LRU position and return true (a hit).
  bool touch(const storage::PageKey& key);

  [[nodiscard]] bool contains(const storage::PageKey& key) const;

  /// Make `key` resident, evicting least-recently-used unpinned pages as
  /// needed. Returns the evicted keys. A page larger than the whole budget
  /// is not cached (returned in the vector is nothing; contains() stays
  /// false). Inserting an already-resident key just touches it.
  std::vector<storage::PageKey> insert(const storage::PageKey& key,
                                       std::size_t bytes);

  /// Pinned pages are never evicted. Pins nest.
  void pin(const storage::PageKey& key);
  void unpin(const storage::PageKey& key);

  /// Drop a page explicitly (must not be pinned). No-op if absent.
  void erase(const storage::PageKey& key);

  [[nodiscard]] std::uint64_t capacityBytes() const { return capacity_; }
  [[nodiscard]] std::uint64_t residentBytes() const { return resident_; }
  [[nodiscard]] std::size_t residentPages() const { return pages_.size(); }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t uncacheable = 0;  ///< inserts that could not fit
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::size_t bytes = 0;
    int pins = 0;
    std::list<storage::PageKey>::iterator lruIt;
  };

  std::uint64_t capacity_;
  std::uint64_t resident_ = 0;
  std::list<storage::PageKey> lru_;  ///< front = most recent
  std::unordered_map<storage::PageKey, Entry, storage::PageKeyHash> pages_;
  Stats stats_;
};

}  // namespace mqs::pagespace
