#include "query/result_catalog.hpp"

#include <utility>
#include <vector>

namespace mqs::query {

std::optional<datastore::BlobId> ResultCatalog::blobOf(
    sched::NodeId node) const {
  const auto it = nodeBlob_.find(node);
  if (it == nodeBlob_.end()) return std::nullopt;
  return it->second;
}

void ResultCatalog::bind(sched::NodeId node, datastore::BlobId blob) {
  nodeBlob_[node] = blob;
  blobNode_[blob] = node;
}

void ResultCatalog::finish(sched::NodeId node,
                           std::optional<datastore::BlobId> blob) {
  if (blob) bind(node, *blob);
  scheduler_->completed(node);
  if (!blob) {
    // Nothing cached (duplicate result, or DS full/disabled): the node
    // cannot serve reuse, so it leaves the graph at once.
    scheduler_->retired(node);
  } else if (evictedWhileExecuting_.erase(node) > 0) {
    // Our blob was reclaimed before we even finished (tiny Data Store).
    nodeBlob_.erase(node);
    blobNode_.erase(*blob);
    scheduler_->retired(node);
  }
}

void ResultCatalog::evicted(datastore::EvictedBlob blob,
                            datastore::SpillTier* spill) {
  sched::NodeId node = sched::kInvalidNode;
  if (const auto it = blobNode_.find(blob.id); it != blobNode_.end()) {
    node = it->second;
    blobNode_.erase(it);
    nodeBlob_.erase(node);
    if (scheduler_->stateOf(node) != sched::QueryState::Cached) {
      // Evicted before its own query finished (tiny Data Store): finish()
      // retires the node; nothing worth spilling yet.
      evictedWhileExecuting_.insert(node);
      return;
    }
  }
  if (spill == nullptr) {
    // No tier: eviction is terminal (retired() on a CACHED node counts one
    // swap-out and removes it).
    if (node != sched::kInvalidNode) scheduler_->retired(node);
    return;
  }
  // Entries the tier FIFO-drops to make room are terminal for *their*
  // nodes.
  std::vector<datastore::SpillId> droppedIds;
  const std::optional<datastore::SpillId> sid =
      spill->demote(std::move(blob), &droppedIds);
  if (node != sched::kInvalidNode) {
    if (sid) {
      spillNode_[*sid] = node;
      scheduler_->swappedOut(node);
    } else {
      scheduler_->retired(node);  // blob alone exceeds the tier
    }
  }
  for (const datastore::SpillId d : droppedIds) retireSpilled(d);
}

void ResultCatalog::restored(datastore::SpillId sid,
                             std::optional<datastore::BlobId> blob) {
  const auto it = spillNode_.find(sid);
  // With no mapped node this was a sub-query blob: no scheduler transition,
  // it serves reuse straight from the store again.
  if (it == spillNode_.end()) return;
  const sched::NodeId node = it->second;
  spillNode_.erase(it);
  if (blob) {
    bind(node, *blob);
    scheduler_->restored(node);
  } else {
    // Insert refused (duplicate or over budget): the spill entry is spent,
    // so the node's result is gone for good.
    scheduler_->retired(node);
  }
}

void ResultCatalog::retireSpilled(datastore::SpillId sid) {
  const auto it = spillNode_.find(sid);
  if (it == spillNode_.end()) return;  // sub-query entry, no graph node
  const sched::NodeId node = it->second;
  spillNode_.erase(it);
  scheduler_->retired(node);
}

}  // namespace mqs::query
