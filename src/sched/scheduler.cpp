#include "sched/scheduler.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mqs::sched {

QueryScheduler::QueryScheduler(const query::QuerySemantics* semantics,
                               PolicyPtr policy, bool incremental)
    : graph_(semantics), policy_(std::move(policy)), incremental_(incremental) {
  MQS_CHECK(policy_ != nullptr);
}

void QueryScheduler::rerankLocked(NodeId n) {
  NodeRt& rt = rt_[n];
  ++rt.version;
  if (graph_.state(n) != QueryState::Waiting) return;
  ++stats_.rankEvaluations;
  const double r = policy_->rank(graph_, n);
  heap_.push(HeapEntry{r, graph_.arrivalSeq(n), rt.version, n});
}

void QueryScheduler::rerankNeighborsLocked(NodeId n) {
  for (NodeId k : graph_.neighbors(n)) {
    if (graph_.state(k) == QueryState::Waiting) rerankLocked(k);
  }
}

void QueryScheduler::rerankAllWaitingLocked() {
  graph_.forEachNode([&](NodeId k) {
    if (graph_.state(k) == QueryState::Waiting) rerankLocked(k);
  });
}

void QueryScheduler::afterEventLocked(NodeId n) {
  if (!policy_->ranksDependOnGraph()) return;
  if (incremental_) {
    rerankNeighborsLocked(n);
  } else {
    rerankAllWaitingLocked();
  }
}

void QueryScheduler::rerankAfterFeedbackLocked() {
  if (!feedbackPending_) return;
  feedbackPending_ = false;
  rerankAllWaitingLocked();
}

NodeId QueryScheduler::submit(query::PredicatePtr predicate) {
  MutexLock lock(mu_);
  rerankAfterFeedbackLocked();
  const NodeId n = graph_.insert(std::move(predicate));
  ++stats_.submitted;
  ++waiting_;
  rt_.emplace(n, NodeRt{});
  rerankLocked(n);
  afterEventLocked(n);
  if (tracer_ != nullptr) tracer_->beginSpan(n, trace::SpanKind::Queued);
  return n;
}

std::optional<NodeId> QueryScheduler::dequeue() {
  MutexLock lock(mu_);
  // The pick must reflect every report since the last scheduling event.
  rerankAfterFeedbackLocked();
  while (!heap_.empty()) {
    const HeapEntry top = heap_.top();
    heap_.pop();
    auto it = rt_.find(top.node);
    if (it == rt_.end() || it->second.version != top.version ||
        !graph_.contains(top.node) ||
        graph_.state(top.node) != QueryState::Waiting) {
      ++stats_.staleHeapPops;
      continue;
    }
    graph_.setState(top.node, QueryState::Executing);
    it->second.version++;  // invalidate any remaining heap entries
    it->second.execSeq = nextExecSeq_++;
    --waiting_;
    ++executing_;
    ++stats_.dequeued;
    afterEventLocked(top.node);
    if (tracer_ != nullptr) {
      tracer_->endSpan(top.node, trace::SpanKind::Queued);
    }
    return top.node;
  }
  return std::nullopt;
}

void QueryScheduler::completed(NodeId n) {
  MutexLock lock(mu_);
  rerankAfterFeedbackLocked();
  MQS_CHECK_MSG(graph_.contains(n), "completed() on unknown node");
  MQS_CHECK_MSG(graph_.state(n) == QueryState::Executing,
                "completed() on a non-executing node");
  graph_.setState(n, QueryState::Cached);
  --executing_;
  ++stats_.completedCount;
  afterEventLocked(n);
}

void QueryScheduler::swappedOut(NodeId n) {
  MutexLock lock(mu_);
  rerankAfterFeedbackLocked();
  MQS_CHECK_MSG(graph_.contains(n), "swappedOut() on unknown node");
  MQS_CHECK_MSG(graph_.state(n) == QueryState::Cached,
                "swappedOut() on a non-cached node");
  // A real retained state, not a tombstone: the node and its edges stay in
  // the graph so a later restored() can revive it without re-submission.
  graph_.setState(n, QueryState::SwappedOut);
  ++stats_.swappedOutCount;
  afterEventLocked(n);
}

void QueryScheduler::restored(NodeId n) {
  MutexLock lock(mu_);
  rerankAfterFeedbackLocked();
  MQS_CHECK_MSG(graph_.contains(n), "restored() on unknown node");
  MQS_CHECK_MSG(graph_.state(n) == QueryState::SwappedOut,
                "restored() on a non-swapped-out node");
  graph_.setState(n, QueryState::Cached);
  ++stats_.restoredCount;
  afterEventLocked(n);
}

void QueryScheduler::noteFold(NodeId subscriber, NodeId owner) {
  MutexLock lock(mu_);
  rerankAfterFeedbackLocked();
  // Tolerant: the fold already happened at the scan registry; if either
  // endpoint has since left the graph there is nothing to annotate.
  if (subscriber == owner) return;
  if (!graph_.contains(subscriber) || !graph_.contains(owner)) return;
  if (!graph_.addFoldEdge(owner, subscriber)) return;
  ++stats_.foldEdges;
  afterEventLocked(subscriber);
}

void QueryScheduler::retired(NodeId n) {
  MutexLock lock(mu_);
  rerankAfterFeedbackLocked();
  MQS_CHECK_MSG(graph_.contains(n), "retired() on unknown node");
  const QueryState s = graph_.state(n);
  MQS_CHECK_MSG(s == QueryState::Cached || s == QueryState::SwappedOut,
                "retired() on a node that is neither cached nor swapped out");
  if (s == QueryState::Cached) {
    // Terminal drop of a cached result (no spill tier): this is the
    // historical swappedOut() path, counted identically.
    graph_.setState(n, QueryState::SwappedOut);
    ++stats_.swappedOutCount;
  }
  ++stats_.retiredCount;
  const std::vector<NodeId> affected = graph_.neighbors(n);
  graph_.remove(n);
  rt_.erase(n);
  if (policy_->ranksDependOnGraph()) {
    if (incremental_) {
      for (NodeId k : affected) {
        if (graph_.contains(k) && graph_.state(k) == QueryState::Waiting) {
          rerankLocked(k);
        }
      }
    } else {
      rerankAllWaitingLocked();
    }
  }
}

void QueryScheduler::failed(NodeId n) {
  MutexLock lock(mu_);
  rerankAfterFeedbackLocked();
  MQS_CHECK_MSG(graph_.contains(n), "failed() on unknown node");
  MQS_CHECK_MSG(graph_.state(n) == QueryState::Executing,
                "failed() on a non-executing node");
  graph_.setState(n, QueryState::Failed);
  const std::vector<NodeId> affected = graph_.neighbors(n);
  graph_.remove(n);
  rt_.erase(n);
  --executing_;
  ++stats_.failedCount;
  if (policy_->ranksDependOnGraph()) {
    if (incremental_) {
      for (NodeId k : affected) {
        if (graph_.contains(k) && graph_.state(k) == QueryState::Waiting) {
          rerankLocked(k);
        }
      }
    } else {
      rerankAllWaitingLocked();
    }
  }
}

void QueryScheduler::reportQueryOutcome(double achievedOverlap) {
  if (!policy_->ranksDependOnFeedback()) return;
  MutexLock lock(mu_);
  policy_->onQueryOutcome(achievedOverlap);
  feedbackPending_ = true;
}

void QueryScheduler::reportResourceSignal(double ioCongestion) {
  if (!policy_->ranksDependOnFeedback()) return;
  MutexLock lock(mu_);
  policy_->onResourceSignal(ioCongestion);
  feedbackPending_ = true;
}

std::vector<QueryScheduler::ReuseSource> QueryScheduler::executingSources(
    NodeId n) const {
  MutexLock lock(mu_);
  std::vector<ReuseSource> sources;
  if (!graph_.contains(n)) return sources;
  const auto myIt = rt_.find(n);
  const std::uint64_t mySeq = myIt == rt_.end() ? 0 : myIt->second.execSeq;
  std::vector<std::uint64_t> seqs;
  for (const Edge& e : graph_.inEdges(n)) {
    if (graph_.state(e.peer) != QueryState::Executing) continue;
    const auto it = rt_.find(e.peer);
    const std::uint64_t peerSeq = it == rt_.end() ? 0 : it->second.execSeq;
    // Deadlock avoidance: wait only on queries that started earlier.
    if (mySeq == 0 || peerSeq == 0 || peerSeq >= mySeq) continue;
    sources.push_back(ReuseSource{e.peer, e.overlap, QueryState::Executing});
    seqs.push_back(peerSeq);
  }
  // Deterministic candidate order: overlap descending, then the older
  // execution first (it will finish sooner, all else equal).
  std::vector<std::size_t> order(sources.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (sources[a].overlap != sources[b].overlap) {
      return sources[a].overlap > sources[b].overlap;
    }
    return seqs[a] < seqs[b];
  });
  std::vector<ReuseSource> sorted;
  sorted.reserve(sources.size());
  for (const std::size_t i : order) sorted.push_back(sources[i]);
  return sorted;
}

std::optional<QueryState> QueryScheduler::stateOf(NodeId n) const {
  MutexLock lock(mu_);
  if (!graph_.contains(n)) return std::nullopt;
  return graph_.state(n);
}

query::PredicatePtr QueryScheduler::predicateOf(NodeId n) const {
  MutexLock lock(mu_);
  if (!graph_.contains(n)) return nullptr;
  return graph_.predicate(n).clone();
}

double QueryScheduler::rankOf(NodeId n) const {
  MutexLock lock(mu_);
  return policy_->rank(graph_, n);
}

std::size_t QueryScheduler::waitingCount() const {
  MutexLock lock(mu_);
  return waiting_;
}

std::size_t QueryScheduler::executingCount() const {
  MutexLock lock(mu_);
  return executing_;
}

std::uint64_t QueryScheduler::execSeq(NodeId n) const {
  MutexLock lock(mu_);
  const auto it = rt_.find(n);
  return it == rt_.end() ? 0 : it->second.execSeq;
}

QueryScheduler::Stats QueryScheduler::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace mqs::sched
