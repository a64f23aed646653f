// Result catalog: where each finished query's result lives, shared by both
// engines (DESIGN.md §7, §13).
//
// A query that caches its result becomes a reuse source. The scheduling
// graph keeps its node CACHED while the Data Store holds the blob,
// SWAPPED_OUT while the spill tier holds it, and retires it once the
// result is gone. The catalog maps nodes to blobs and spill entries and
// drives those transitions. Blobs and spill entries with no node (cached
// remainder parts) pass through untracked. Not synchronized: the threaded
// server guards it with its own mutex.
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "datastore/data_store.hpp"
#include "datastore/spill_tier.hpp"
#include "sched/scheduler.hpp"

namespace mqs::query {

class ResultCatalog {
 public:
  explicit ResultCatalog(sched::QueryScheduler& scheduler)
      : scheduler_(&scheduler) {}

  /// The resident blob holding `node`'s result, if any.
  [[nodiscard]] std::optional<datastore::BlobId> blobOf(
      sched::NodeId node) const;

  /// `node`'s query completed with `blob` cached (nullopt: nothing cached).
  void finish(sched::NodeId node, std::optional<datastore::BlobId> blob);

  /// The Data Store evicted `blob`: demote it to `spill` (null = no tier),
  /// or retire its node when the result is gone. Never calls back into the
  /// Data Store.
  void evicted(datastore::EvictedBlob blob, datastore::SpillTier* spill);

  /// A RestoreFromSpill step took spill entry `sid` and re-inserted it as
  /// `blob` (nullopt: the insert was refused).
  void restored(datastore::SpillId sid, std::optional<datastore::BlobId> blob);

 private:
  void bind(sched::NodeId node, datastore::BlobId blob);
  /// Terminal drop of a spilled entry: unmap it and retire its node.
  void retireSpilled(datastore::SpillId sid);

  sched::QueryScheduler* scheduler_;
  std::unordered_map<sched::NodeId, datastore::BlobId> nodeBlob_;
  std::unordered_map<datastore::BlobId, sched::NodeId> blobNode_;
  std::unordered_map<datastore::SpillId, sched::NodeId> spillNode_;
  /// Nodes whose blob was evicted before their query finished.
  std::unordered_set<sched::NodeId> evictedWhileExecuting_;
};

}  // namespace mqs::query
