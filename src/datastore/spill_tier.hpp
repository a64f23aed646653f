// Disk spill tier for demoted Data Store blobs (DESIGN.md §13).
//
// Eviction used to be terminal: the bytes vanished and the scheduling
// graph's SWAPPED_OUT state was a tombstone. The spill tier gives evicted
// intermediate results a second, cheaper life — S/C-style bounded-memory
// materialization: the engines' eviction listeners *demote* blobs here
// instead of dropping them, the planner considers spilled blobs as
// RestoreFromSpill reuse candidates costed against recomputation, and a
// restore re-inserts the blob into the Data Store (SWAPPED_OUT → CACHED in
// the scheduling graph).
//
// Two storage modes behind one API:
//   * in-memory (`dir` empty) — metadata + payload stay in RAM; the
//     discrete-event engine charges DiskModel::serviceTime for restores,
//     so the simulator sees disk economics without a disk;
//   * temp-file (`dir` set) — the real server persists payloads into
//     `dir/spill-<id>.bin` from a dedicated background writer thread, so
//     demotion never blocks the eviction (hit/insert) path: demote() only
//     moves the payload into the tier and enqueues the write-out. Files
//     and the directory (if created here) are removed on destruction.
//
// Concurrency: one mutex (rank kSpillTier = 44, between the Data Store
// lock and the Page Space lock) guards metadata, the FIFO drop order,
// and the spatial index. Restore copies the entry out and releases the
// lock before any Data Store re-insert, so the 44 → 40 inversion can
// never occur.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/blocking_queue.hpp"
#include "common/thread_annotations.hpp"
#include "datastore/data_store.hpp"
#include "index/rtree.hpp"
#include "query/predicate.hpp"
#include "query/semantics.hpp"
#include "storage/disk_model.hpp"
#include "trace/trace.hpp"

namespace mqs::datastore {

using SpillId = std::uint64_t;

class SpillTier {
 public:
  /// `capacityBytes` bounds the tier (logical bytes, like the store);
  /// `dir` selects temp-file mode when non-empty (created if absent);
  /// `disk` prices restores in both engines (sim charges it as virtual
  /// time, the planner uses it to cost RestoreFromSpill against recompute).
  SpillTier(std::uint64_t capacityBytes, const query::QuerySemantics* semantics,
            std::string dir = {},
            storage::DiskModel disk = storage::DiskModel{});
  ~SpillTier();

  SpillTier(const SpillTier&) = delete;
  SpillTier& operator=(const SpillTier&) = delete;

  /// DS_SPILL / DS_RESTORE counters and the DS_SPILL_BYTES gauge are
  /// emitted through this tracer. Must outlive the tier. Takes mu_: the
  /// constructor already started the writer thread, which reads tracer_
  /// under the lock, so an unsynchronized store here would race with it.
  void setTracer(trace::Tracer* tracer) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    tracer_ = tracer;
  }

  struct Match {
    SpillId id = 0;
    double overlap = 0.0;
  };

  /// Planner-facing snapshot of one spilled blob: everything needed to
  /// cost a RestoreFromSpill step without taking the entry out.
  struct Candidate {
    query::PredicatePtr predicate;  ///< clone — safe past the call
    std::uint64_t logicalBytes = 0;
    double recomputeCostSec = 0.0;  ///< traced cost carried from the store
    double restoreCostSec = 0.0;    ///< modeled cost to read it back
  };

  /// Move an evicted blob into the tier. Oldest entries FIFO-drop to make
  /// room (their ids are appended to `dropped` so the caller can retire
  /// the matching graph nodes); returns nullopt — and touches nothing — if
  /// the blob alone exceeds the tier. In temp-file mode the payload
  /// write-out happens asynchronously on the writer thread.
  std::optional<SpillId> demote(EvictedBlob blob,
                                std::vector<SpillId>* dropped = nullptr);

  /// Up to `k` spilled blobs with overlap(blob, q) > minOverlap, best
  /// first (ties toward the newer entry — same bias as the store).
  [[nodiscard]] std::vector<Match> lookupTopK(const query::Predicate& q,
                                              std::size_t k,
                                              double minOverlap = 0.0) const;

  /// Snapshot for plan costing; nullopt if the entry was dropped.
  [[nodiscard]] std::optional<Candidate> candidate(SpillId id) const;

  /// Take the entry out of the tier (reading the payload back from disk in
  /// temp-file mode). Returns nullopt if it was dropped in the meantime;
  /// the EvictedBlob's id field carries the spill id.
  std::optional<EvictedBlob> restore(SpillId id);

  /// Modeled cost of restoring `bytes` (one sequential stream).
  [[nodiscard]] double restoreCostSec(std::uint64_t bytes) const {
    return disk_.serviceTime(static_cast<std::size_t>(bytes), 1);
  }

  struct Stats {
    std::uint64_t demoted = 0;   ///< blobs accepted by demote()
    std::uint64_t dropped = 0;   ///< FIFO drops + too-big rejections
    std::uint64_t restored = 0;  ///< successful restore() calls
    std::uint64_t writeouts = 0; ///< payload files persisted (file mode)
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::uint64_t capacityBytes() const { return capacity_; }
  [[nodiscard]] std::uint64_t residentBytes() const;
  [[nodiscard]] std::size_t residentEntries() const;

  /// Block until every queued write-out has settled (test/shutdown hook;
  /// immediate in in-memory mode).
  void flush();

 private:
  struct Entry {
    query::PredicatePtr predicate;
    std::vector<std::byte> payload;  ///< until persisted (or always, in-mem)
    std::uint64_t logicalBytes = 0;
    double recomputeCostSec = 0.0;
    bool persisted = false;  ///< payload lives in spill-<id>.bin
  };

  [[nodiscard]] std::string pathFor(SpillId id) const;
  void writerLoop();
  void dropLocked(SpillId id, std::vector<std::string>& deadFiles)
      REQUIRES(mu_);
  void emitSpillGaugeLocked() REQUIRES(mu_);

  const std::uint64_t capacity_;
  const query::QuerySemantics* semantics_;  ///< immutable after construction
  const std::string dir_;                   ///< empty = in-memory mode
  const storage::DiskModel disk_;
  bool createdDir_ = false;  ///< immutable after construction

  mutable Mutex mu_{lockorder::Rank::kSpillTier, "SpillTier::mu_"};
  trace::Tracer* tracer_ GUARDED_BY(mu_) = nullptr;
  CondVar drained_;  ///< signaled when pendingWrites_ hits zero
  std::unordered_map<SpillId, Entry> entries_ GUARDED_BY(mu_);
  std::list<SpillId> fifo_ GUARDED_BY(mu_);  ///< front = oldest (drop first)
  index::RTree spatial_ GUARDED_BY(mu_);
  std::uint64_t resident_ GUARDED_BY(mu_) = 0;
  SpillId nextId_ GUARDED_BY(mu_) = 1;
  int pendingWrites_ GUARDED_BY(mu_) = 0;

  std::atomic<std::uint64_t> demoted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> restored_{0};
  std::atomic<std::uint64_t> writeouts_{0};

  BlockingQueue<SpillId> writeQueue_;  ///< file mode only
  std::thread writer_;                 ///< file mode only
};

}  // namespace mqs::datastore
