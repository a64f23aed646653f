// Data Store Manager (§2): dynamic storage for intermediate results with
// semantic metadata.
//
// Each blob is a query result (or sub-query result) annotated with its
// predicate. lookupTopK() implements the system's reuse test: find the
// resident blobs whose user-defined overlap with the incoming query is
// highest.
// Blobs are evicted under a byte budget by a pluggable EvictionRanker
// (LRU by default; see eviction_ranker.hpp); each eviction is reported to
// a listener carrying the blob's predicate, payload, and traced recompute
// cost, so the engines can demote it to the spill tier (SWAPPED_OUT) or
// drop it (DESIGN.md §13).
//
// Sizes are accounted in *logical* bytes (qoutsize) so the discrete-event
// engine — which stores no payloads — sees exactly the same residency
// behaviour as the threaded runtime.
//
// One lock (rank kDataStore) guards the recency list, the blob table, the
// R-tree and the byte budget; blob ids are the dense sequence 1, 2, 3, ...
// (DESIGN.md §10 explains why the store is not sharded).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "datastore/eviction_ranker.hpp"
#include "index/rtree.hpp"
#include "query/predicate.hpp"
#include "query/semantics.hpp"
#include "trace/trace.hpp"

namespace mqs::datastore {

using BlobId = std::uint64_t;

/// Everything an eviction listener needs to decide demote-vs-drop: the
/// payload and cost travel *out* of the store with the eviction, so a spill
/// tier can take ownership without calling back in.
struct EvictedBlob {
  BlobId id = 0;
  query::PredicatePtr predicate;
  std::vector<std::byte> payload;    ///< empty in simulation mode
  std::uint64_t logicalBytes = 0;
  double recomputeCostSec = 0.0;     ///< traced cost attributed at insert
};

class DataStore {
 public:
  /// `semantics` provides the user-defined overlap operator used by
  /// lookupTopK.
  DataStore(std::uint64_t capacityBytes, const query::QuerySemantics* semantics,
            EvictionPolicy eviction = EvictionPolicy::Lru);

  /// Pluggable-ranker constructor: identical store, custom victim scoring
  /// (stats()/logs report the policy as CostAware's name).
  DataStore(std::uint64_t capacityBytes, const query::QuerySemantics* semantics,
            std::unique_ptr<EvictionRanker> ranker);

  /// Called with each evicted blob — predicate, payload, and recompute cost
  /// move out with it so a spill tier can take ownership. Must not call
  /// back into the data store: the contract is enforced by a debug
  /// reentrancy guard (same build gate as the lock-rank checker) that
  /// aborts on any store entry from inside the listener.
  void setEvictionListener(std::function<void(EvictedBlob)> listener);

  /// Attach a lifecycle tracer: reuse hits (noteReuse), empty lookups, and
  /// evictions emit DS_HIT / DS_MISS / DS_EVICT counters. The
  /// tracer must outlive the store.
  void setTracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Store a result. `payload` may be empty (simulation mode);
  /// `logicalBytes` is the result's qoutsize and drives the byte budget.
  /// Returns the blob id, or std::nullopt if the blob cannot be cached
  /// (larger than the whole store, or everything else is pinned).
  ///
  /// `recomputeCostSec` is the cost to rebuild this result (the CostAware
  /// ranker's metric). The default (-1) takes the inserting query's accrued
  /// COMPUTE/IO_STALL time from the attached tracer's cost ledger
  /// (Tracer::takeThreadQueryCost) when cost accounting is on, else 0;
  /// spill restores pass the blob's original cost back in explicitly.
  std::optional<BlobId> insert(query::PredicatePtr predicate,
                               std::vector<std::byte> payload,
                               std::uint64_t logicalBytes,
                               double recomputeCostSec = -1.0);

  struct Match {
    BlobId id = 0;
    double overlap = 0.0;
  };

  /// Candidate generation for the multi-source reuse planner: up to `k`
  /// resident blobs with overlap(blob, q) > minOverlap, sorted by overlap
  /// descending (ties toward the newer blob). Candidates come from the
  /// R-tree, so the cost is proportional to the spatial matches, not the
  /// resident population. Does NOT refresh LRU positions or hit counters —
  /// the planner pins the sources it selects with tryPin() and reports
  /// them via noteReuse(). Counts one lookup in stats().
  [[nodiscard]] std::vector<Match> lookupTopK(const query::Predicate& q,
                                              std::size_t k,
                                              double minOverlap = 0.0);

  /// Reuse feedback from the planner: refresh the blob's LRU position and
  /// use count, and account a hit (a full hit when `overlap` >= 1). No-op
  /// if the blob was evicted in the meantime.
  void noteReuse(BlobId id, double overlap);

  [[nodiscard]] bool contains(BlobId id) const;

  /// Predicate of a resident blob. The reference is valid while the blob is
  /// pinned (or, single-threadedly, until the next mutating call).
  [[nodiscard]] const query::Predicate& predicate(BlobId id) const;

  /// Recompute cost attributed to a resident blob at insert time (0 when
  /// cost accounting was off). Checks the blob is resident.
  [[nodiscard]] double recomputeCost(BlobId id) const;

  /// Payload bytes of a resident blob (empty span in simulation mode).
  [[nodiscard]] std::span<const std::byte> payload(BlobId id) const;

  /// Pinned blobs are never evicted. Pins nest.
  void pin(BlobId id);
  void unpin(BlobId id);
  /// Pin if still resident; returns whether the pin was taken.
  bool tryPin(BlobId id);

  /// RAII unpin: holds one pin on a blob and releases it on destruction
  /// (exception-safe counterpart to tryPin).
  class PinGuard {
   public:
    PinGuard() = default;
    PinGuard(DataStore& ds, BlobId id) : ds_(&ds), id_(id) {}
    PinGuard(PinGuard&& other) noexcept
        : ds_(std::exchange(other.ds_, nullptr)), id_(other.id_) {}
    PinGuard& operator=(PinGuard&& other) noexcept {
      if (this != &other) {
        release();
        ds_ = std::exchange(other.ds_, nullptr);
        id_ = other.id_;
      }
      return *this;
    }
    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;
    ~PinGuard() { release(); }

    void release() {
      if (ds_ != nullptr) {
        ds_->unpin(id_);
        ds_ = nullptr;
      }
    }
    [[nodiscard]] bool held() const { return ds_ != nullptr; }

   private:
    DataStore* ds_ = nullptr;
    BlobId id_ = 0;
  };

  /// Explicitly drop a blob (used by tests and by administrative paths).
  /// No-op if absent; the eviction listener fires.
  void erase(BlobId id);

  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;        ///< reuses reported via noteReuse()
    std::uint64_t fullHits = 0;    ///< hits with overlap >= 1
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t uncacheable = 0;
  };
  /// Lock-free: all counters are relaxed atomics bumped at the event site,
  /// so polling stats never contends with the query path.
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::uint64_t capacityBytes() const { return capacity_; }
  [[nodiscard]] std::uint64_t residentBytes() const;
  [[nodiscard]] std::size_t residentBlobs() const;
  /// Blobs currently holding at least one pin. Zero once the server is
  /// idle — a positive count then means a leaked PinGuard (soak-test
  /// invariant).
  [[nodiscard]] std::size_t pinnedBlobs() const;

 private:
  struct Blob {
    query::PredicatePtr predicate;
    std::vector<std::byte> payload;
    std::uint64_t logicalBytes = 0;
    std::uint64_t uses = 0;  ///< noteReuse() count (LFU / CostAware weight)
    double recomputeCostSec = 0.0;  ///< traced insert-time recompute cost
    int pins = 0;
    std::list<BlobId>::iterator lruIt;
  };

  /// Next eviction victim under the configured ranker, or 0: the unpinned
  /// blob with the lowest victimScore(), ties toward the LRU end
  /// (recency-only rankers short-circuit to the first unpinned tail blob).
  BlobId pickVictimLocked() const REQUIRES(mu_);

  /// Evict (policy order) until `need` more bytes fit in the budget;
  /// returns false if the unpinned blobs cannot make room.
  bool makeRoomLocked(std::uint64_t need, std::vector<EvictedBlob>& evicted)
      REQUIRES(mu_);
  /// Remove a blob, moving its state into `evicted` for the listener.
  void eraseLocked(BlobId id, bool countEviction,
                   std::vector<EvictedBlob>& evicted) REQUIRES(mu_);
  /// Fire the eviction listener for evictions collected under the lock
  /// (called after unlocking: the listener takes the scheduler lock and may
  /// hand the blob to the spill tier). While the listener runs, the debug
  /// reentrancy guard marks this store as listener-active for the calling
  /// thread; guardReentry() aborts any re-entry from inside the callback.
  void reportEvictions(std::vector<EvictedBlob>& evicted) EXCLUDES(mu_);
  void guardReentry() const;

  /// Set once before any worker thread exists (QueryServer's constructor
  /// installs it before spawning workers); the pointee synchronizes itself.
  trace::Tracer* tracer_ = nullptr;

  const std::uint64_t capacity_;
  const std::unique_ptr<EvictionRanker> ranker_;
  const query::QuerySemantics* semantics_;  ///< immutable after construction

  mutable Mutex mu_{lockorder::Rank::kDataStore, "DataStore::mu_"};
  std::function<void(EvictedBlob)> evictionListener_ GUARDED_BY(mu_);
  std::uint64_t resident_ GUARDED_BY(mu_) = 0;
  BlobId nextId_ GUARDED_BY(mu_) = 1;
  std::list<BlobId> lru_ GUARDED_BY(mu_);  ///< front = most recent
  std::unordered_map<BlobId, Blob> blobs_ GUARDED_BY(mu_);
  index::RTree spatial_ GUARDED_BY(mu_);  ///< bounding boxes -> blob ids

  // Hot counters: relaxed atomics so stats() never takes the store lock.
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> fullHits_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> uncacheable_{0};
};

}  // namespace mqs::datastore
